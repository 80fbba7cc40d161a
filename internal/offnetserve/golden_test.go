package offnetserve

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"offnetscope/internal/hg"
)

var updateAnswers = flag.Bool("update", false, "rewrite testdata/answers.golden from the current handlers")

const answersGolden = "testdata/answers.golden"

// goldenRequests are the requests answers.golden pins, in file order,
// each answered by New(testStore, Config{Workers: 4, MaxBatch: 3}).
var goldenRequests = []struct{ method, path, body string }{
	{"GET", "/v1/snapshots", ""},
	{"GET", "/v1/ip/10.1.2.3", ""},  // the /24: AS200, Google and Netflix
	{"GET", "/v1/ip/10.1.99.1", ""}, // the /16: AS100, Google's run split in two
	{"GET", "/v1/ip/10.1.3.9", ""},  // two origins
	{"GET", "/v1/ip/192.0.2.1", ""}, // unmapped
	{"GET", "/v1/ip/not-an-ip", ""},
	{"GET", "/v1/ip/a%3Cb%3E&c", ""}, // the error echoes the input, HTML-escaped
	{"GET", "/v1/as/200", ""},
	{"GET", "/v1/as/100", ""},
	{"GET", "/v1/as/999", ""}, // no hostings
	{"GET", "/v1/as/0", ""},
	{"GET", "/v1/as/zero", ""},
	{"GET", "/v1/hg/google/footprint", ""},
	{"GET", "/v1/hg/Google/footprint?snapshot=2021-01", ""},
	{"GET", "/v1/hg/netflix/footprint?snapshot=2020-10", ""}, // empty footprint
	{"GET", fmt.Sprintf("/v1/hg/%d/footprint", int(hg.Netflix)), ""},
	{"GET", "/v1/hg/nosuchhg/footprint", ""},
	{"GET", "/v1/hg/google/footprint?snapshot=2014-01", ""}, // on the grid, not in the store
	{"GET", "/v1/hg/google/footprint?snapshot=never", ""},
	{"GET", "/v1/hg/google/footprint?snapshot=2013-13", ""},
	{"POST", "/v1/batch", `{"ips": ["10.1.2.3", "10.1.3.9", "garbage"]}`},
	{"POST", "/v1/batch", `{"ips": []}`},
	{"POST", "/v1/batch", `{"ips": ["10.1.2.3", "10.1.2.4", "10.1.2.5", "10.1.2.6"]}`}, // over MaxBatch
	{"POST", "/v1/batch", `{"ips": [`},
	{"GET", "/healthz", ""},
	{"GET", "/readyz", ""},
}

// TestAnswersGolden pins every answer byte for byte: status,
// Content-Type and body, trailing newline included. Each entry of
// answers.golden is the request line, "status content-type", the body
// (one line of compact JSON) and a blank line. -update rewrites the
// file, passing each body through json.Compact, so it can be generated
// from handlers that indent.
func TestAnswersGolden(t *testing.T) {
	s := New(testStore(t), Config{Workers: 4, MaxBatch: 3})
	got := make([]string, len(goldenRequests))
	for i, r := range goldenRequests {
		line := r.method + " " + r.path
		var body io.Reader
		if r.body != "" {
			line += " " + r.body
			body = strings.NewReader(r.body)
		}
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(r.method, r.path, body))
		answer := rec.Body.Bytes()
		if *updateAnswers {
			var buf bytes.Buffer
			if err := json.Compact(&buf, answer); err != nil {
				t.Fatalf("%s: %v", line, err)
			}
			answer = append(buf.Bytes(), '\n')
		}
		got[i] = fmt.Sprintf("%s\n%d %s\n%s", line, rec.Code, rec.Header().Get("Content-Type"), answer)
	}
	if *updateAnswers {
		if err := os.WriteFile(answersGolden, []byte(strings.Join(got, "\n")), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(answersGolden)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n\n")
	if len(want) != len(got) {
		t.Fatalf("%s has %d entries, want %d (rerun with -update)", answersGolden, len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i]+"\n" {
			t.Errorf("answer %d differs\ngot:\n%s\nwant:\n%s\n", i, got[i], want[i]+"\n")
		}
	}
}
