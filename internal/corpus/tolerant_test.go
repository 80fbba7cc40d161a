package corpus

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"offnetscope/internal/obs"
)

// rewriteNDJSONGZ decompresses path, applies edit to the raw NDJSON
// lines, and writes the result back compressed.
func rewriteNDJSONGZ(t *testing.T, path string, edit func(lines []string) []string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gz, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(gz)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	lines = edit(lines)
	var buf bytes.Buffer
	gw := gzip.NewWriter(&buf)
	if _, err := gw.Write([]byte(strings.Join(lines, "\n") + "\n")); err != nil {
		t.Fatal(err)
	}
	if err := gw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// Tolerant mode skips malformed records within the budget, counts them
// by reason, and keeps every well-formed record; strict mode still
// fails on the first malformed record.
func TestTolerantReadSkipsMalformed(t *testing.T) {
	snap := sampleSnapshot(t)
	root := t.TempDir()
	if err := Write(root, snap); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(Dir(root, Rapid7, snap.Snapshot), "certs.ndjson.gz")
	const badJSON, badIP = 3, 1
	rewriteNDJSONGZ(t, path, func(lines []string) []string {
		out := []string{"this is not json", `{"ip":`}
		out = append(out, lines...)
		out = append(out, "{corrupt", `{"ip":"not-an-address","chain":[]}`)
		return out
	})

	if _, err := Read(root, Rapid7, snap.Snapshot); err == nil {
		t.Fatal("strict read accepted malformed records")
	}

	back, stats, err := ReadWithStats(root, Rapid7, snap.Snapshot, ReadOptions{Tolerant: true, MaxBadFraction: 0.2})
	if err != nil {
		t.Fatalf("tolerant read: %v", err)
	}
	if len(back.Certs) != len(snap.Certs) {
		t.Fatalf("kept %d records, want %d", len(back.Certs), len(snap.Certs))
	}
	fs := stats.Files[0]
	if fs.Name != "certs.ndjson.gz" || fs.Records != len(snap.Certs) {
		t.Fatalf("file stats: %+v", fs)
	}
	if fs.Skipped != badJSON+badIP || fs.Reasons["json"] != badJSON || fs.Reasons["ip"] != badIP {
		t.Fatalf("skip accounting wrong: %s", fs)
	}
	if stats.TotalSkipped() != badJSON+badIP || stats.TotalRecords() != len(snap.Certs)+len(snap.HTTPS)+len(snap.HTTP) {
		t.Fatalf("totals wrong: records=%d skipped=%d", stats.TotalRecords(), stats.TotalSkipped())
	}
	for _, want := range []string{"certs.ndjson.gz:", "4 skipped", "json=3", "ip=1"} {
		if !strings.Contains(fs.String(), want) {
			t.Errorf("stats string %q missing %q", fs.String(), want)
		}
	}
}

// Per-file skip reasons fold into snapshot-wide totals — with the
// dominant corruption class named — and mirror into the obs registry,
// so the funnel report can say *what* is eating a degraded corpus.
func TestTolerantReadReasonTotalsAndMetrics(t *testing.T) {
	snap := sampleSnapshot(t)
	root := t.TempDir()
	if err := Write(root, snap); err != nil {
		t.Fatal(err)
	}
	dir := Dir(root, Rapid7, snap.Snapshot)
	// Damage two different files with different reason mixes (the
	// headers file is tiny, so it gets a single bad record to stay
	// inside the budget).
	rewriteNDJSONGZ(t, filepath.Join(dir, "certs.ndjson.gz"), func(lines []string) []string {
		return append(lines, "not json", "{still not json", `{"ip":"bad-ip","chain":[]}`)
	})
	rewriteNDJSONGZ(t, filepath.Join(dir, "https_headers.ndjson.gz"), func(lines []string) []string {
		return append(lines, "also not json")
	})

	reg := obs.NewRegistry("test")
	back, stats, err := ReadWithStats(root, Rapid7, snap.Snapshot,
		ReadOptions{Tolerant: true, MaxBadFraction: 0.5, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	totals := stats.ReasonTotals()
	if totals["json"] != 3 || totals["ip"] != 1 {
		t.Fatalf("ReasonTotals = %v, want json=3 ip=1", totals)
	}
	reason, n := stats.DominantReason()
	if reason != "json" || n != 3 {
		t.Fatalf("DominantReason = %q/%d, want json/3", reason, n)
	}

	s := reg.Snapshot()
	if got := s.Counter("corpus.skip.json"); got != 3 {
		t.Errorf("corpus.skip.json = %d, want 3", got)
	}
	if got := s.Counter("corpus.skip.ip"); got != 1 {
		t.Errorf("corpus.skip.ip = %d, want 1", got)
	}
	wantRecords := int64(len(back.Certs) + len(back.HTTPS) + len(back.HTTP))
	if got := s.Counter("corpus.records"); got != wantRecords {
		t.Errorf("corpus.records = %d, want %d", got, wantRecords)
	}
	if s.Counter("corpus.reads") != 1 || s.Counter("corpus.records_skipped") != 4 {
		t.Errorf("read accounting: %v", s.Counters)
	}
	if h := s.Histograms["corpus.read_ns"]; h.Count != 1 {
		t.Errorf("corpus.read_ns count = %d, want 1", h.Count)
	}

	// An untouched read reports no skips and a ("", 0) dominant reason.
	clean := &ReadStats{}
	if reason, n := clean.DominantReason(); reason != "" || n != 0 {
		t.Fatalf("clean DominantReason = %q/%d", reason, n)
	}
}

// Past the per-file budget the tolerant read fails with
// ErrBudgetExceeded instead of returning a mostly-empty snapshot.
func TestTolerantReadBudget(t *testing.T) {
	snap := sampleSnapshot(t)
	root := t.TempDir()
	if err := Write(root, snap); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(Dir(root, Rapid7, snap.Snapshot), "certs.ndjson.gz")
	rewriteNDJSONGZ(t, path, func(lines []string) []string {
		for i := 0; i < 20; i++ {
			lines = append(lines, "garbage record")
		}
		return lines
	})
	// 20 bad / 71 total ≈ 28%: over a 5% budget, under a 50% one.
	_, _, err := ReadWithStats(root, Rapid7, snap.Snapshot, ReadOptions{Tolerant: true})
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	if _, _, err := ReadWithStats(root, Rapid7, snap.Snapshot, ReadOptions{Tolerant: true, MaxBadFraction: 0.5}); err != nil {
		t.Fatalf("generous budget still failed: %v", err)
	}
}

// decodeLines drives readChunks with a decoder that yields no records,
// for tests of the line loop's skip and budget accounting alone.
func decodeLines(r io.Reader, name string, opts ReadOptions, fs *FileStats, decode func([]byte) error) error {
	return readChunks(r, name, opts, fs, DefaultChunkSize,
		func(line []byte) (struct{}, error) { return struct{}{}, decode(line) },
		func([]struct{}) error { return nil })
}

// A hopelessly corrupt file aborts during the scan, not after reading
// the whole thing.
func TestTolerantReadEarlyAbort(t *testing.T) {
	var raw strings.Builder
	for i := 0; i < 10000; i++ {
		raw.WriteString("junk line\n")
	}
	fs := &FileStats{Name: "junk"}
	err := decodeLines(strings.NewReader(raw.String()), "junk", ReadOptions{Tolerant: true}, fs,
		func([]byte) error { return badRecord("json", errors.New("nope")) })
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	if fs.Skipped >= 10000 {
		t.Fatalf("read all %d lines before giving up", fs.Skipped)
	}
}

// TestTolerantBudgetBoundary pins the error-budget comparison: skipped
// records must strictly exceed MaxBadFraction of the records seen, so a
// file landing exactly on the budget still reads, and one more record
// over fails it. The zero value (unset) means the 5% default; negative
// values — the NoBudget sentinel — mean zero tolerance, so an explicit
// strict budget is expressible and can no longer silently widen to 5%.
func TestTolerantBudgetBoundary(t *testing.T) {
	decodeBad := func(b []byte) error {
		if string(b) == "bad" {
			return badRecord("json", errors.New("boundary"))
		}
		return nil
	}
	input := func(total, bad int) string {
		var raw strings.Builder
		for i := 0; i < total; i++ {
			if i < bad {
				raw.WriteString("bad\n")
			} else {
				raw.WriteString("ok\n")
			}
		}
		return raw.String()
	}

	for _, tc := range []struct {
		name     string
		opts     ReadOptions
		total    int
		bad      int
		overflow bool
	}{
		{"exactly at explicit budget", ReadOptions{Tolerant: true, MaxBadFraction: 0.05}, 100, 5, false},
		{"one record over explicit budget", ReadOptions{Tolerant: true, MaxBadFraction: 0.05}, 100, 6, true},
		{"unset budget means 5% default", ReadOptions{Tolerant: true}, 100, 5, false},
		{"unset budget still enforces the default", ReadOptions{Tolerant: true}, 100, 6, true},
		{"NoBudget passes a clean file", ReadOptions{Tolerant: true, MaxBadFraction: NoBudget}, 100, 0, false},
		{"NoBudget rejects a single skip", ReadOptions{Tolerant: true, MaxBadFraction: NoBudget}, 100, 1, true},
		{"any negative value is zero tolerance", ReadOptions{Tolerant: true, MaxBadFraction: -0.5}, 100, 1, true},
	} {
		fs := &FileStats{Name: "boundary"}
		err := decodeLines(strings.NewReader(input(tc.total, tc.bad)), "boundary", tc.opts, fs, decodeBad)
		if tc.overflow && !errors.Is(err, ErrBudgetExceeded) {
			t.Errorf("%s: err = %v, want ErrBudgetExceeded", tc.name, err)
		}
		if !tc.overflow {
			if err != nil {
				t.Errorf("%s: err = %v, want nil", tc.name, err)
			}
			if fs.Skipped != tc.bad || fs.Records != tc.total-tc.bad {
				t.Errorf("%s: stats %d skipped/%d records, want %d/%d",
					tc.name, fs.Skipped, fs.Records, tc.bad, tc.total-tc.bad)
			}
		}
	}
}

// A zero-tolerance read needs no sample to judge the fraction: it must
// abort on the first skipped record, not after the early-abort sample
// or — worse — the whole file.
func TestTolerantZeroToleranceAbortsOnFirstSkip(t *testing.T) {
	var raw strings.Builder
	for i := 0; i < 10000; i++ {
		raw.WriteString("junk line\n")
	}
	fs := &FileStats{Name: "junk"}
	err := decodeLines(strings.NewReader(raw.String()), "junk",
		ReadOptions{Tolerant: true, MaxBadFraction: NoBudget}, fs,
		func([]byte) error { return badRecord("json", errors.New("nope")) })
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	if fs.Skipped != 1 {
		t.Fatalf("read %d bad records before aborting, want 1", fs.Skipped)
	}
}

// Tolerant mode must still refuse gzip-level damage: a truncated stream
// has an unassessable remainder.
func TestTolerantReadStillFailsTruncatedGzip(t *testing.T) {
	snap := sampleSnapshot(t)
	root := t.TempDir()
	if err := Write(root, snap); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(Dir(root, Rapid7, snap.Snapshot), "certs.ndjson.gz")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadWithStats(root, Rapid7, snap.Snapshot, ReadOptions{Tolerant: true}); err == nil {
		t.Fatal("tolerant read accepted a truncated gzip stream")
	}
}

// writeNDJSON must never leave a partial file at the target path: on an
// encode error the temp file is removed and a pre-existing good file
// survives untouched.
func TestWriteNDJSONCrashSafe(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "records.ndjson.gz")
	writeVals := func(vals []int) error {
		return writeNDJSON(path, len(vals), func(enc *json.Encoder, i int) error {
			return enc.Encode(vals[i])
		})
	}
	if err := writeVals([]int{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	boom := errors.New("boom")
	err = writeNDJSON(path, 3, func(enc *json.Encoder, i int) error {
		if i == 1 {
			return boom
		}
		return enc.Encode(i)
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the encode error", err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("failed write clobbered the existing file")
	}
	leftovers, err := filepath.Glob(filepath.Join(dir, "*.tmp-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(leftovers) != 0 {
		t.Fatalf("temp files leaked: %v", leftovers)
	}
	// The surviving file still round-trips through gzip.
	gz, err := gzip.NewReader(bytes.NewReader(after))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadAll(gz); err != nil {
		t.Fatal(err)
	}
}

// TestWriteNDJSONSyncsDir pins the durability half of the crash-safety
// claim: a successful writeNDJSON must fsync the parent directory after
// the rename (or the rename may not survive power loss), and a failed
// write — whose rename never happens — must not.
func TestWriteNDJSONSyncsDir(t *testing.T) {
	orig := fsyncDir
	defer func() { fsyncDir = orig }()
	var synced []string
	fsyncDir = func(dir string) error {
		synced = append(synced, dir)
		return orig(dir)
	}

	dir := t.TempDir()
	path := filepath.Join(dir, "records.ndjson.gz")
	if err := writeNDJSON(path, 2, func(enc *json.Encoder, i int) error {
		return enc.Encode(i)
	}); err != nil {
		t.Fatal(err)
	}
	if len(synced) != 1 || synced[0] != dir {
		t.Fatalf("successful write synced %v, want exactly [%s]", synced, dir)
	}

	synced = nil
	boom := errors.New("boom")
	err := writeNDJSON(path, 1, func(*json.Encoder, int) error { return boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the encode error", err)
	}
	if len(synced) != 0 {
		t.Fatalf("failed write synced the directory (%v) despite no rename", synced)
	}
}
