package main

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"offnetscope/internal/astopo"
	"offnetscope/internal/footstore"
	"offnetscope/internal/hg"
	"offnetscope/internal/netmodel"
	"offnetscope/internal/offnetserve"
	"offnetscope/internal/timeline"
)

// smokeStore writes a small store file for the CLI to load.
func smokeStore(t *testing.T) string {
	t.Helper()
	s1, _ := timeline.FromLabel("2021-01")
	s2, _ := timeline.FromLabel("2021-04")
	b := footstore.NewBuilder()
	for _, step := range []struct {
		s  timeline.Snapshot
		fp map[hg.ID][]astopo.ASN
	}{
		{s1, map[hg.ID][]astopo.ASN{hg.Google: {100}}},
		{s2, map[hg.ID][]astopo.ASN{hg.Google: {100, 200}, hg.Netflix: {200}}},
	} {
		if err := b.AddSnapshot(step.s, step.fp); err != nil {
			t.Fatal(err)
		}
	}
	b.AddPrefix(netmodel.MustParsePrefix("10.1.0.0/16"), []astopo.ASN{100})
	b.AddPrefix(netmodel.MustParsePrefix("10.2.0.0/16"), []astopo.ASN{200})
	b.AddPrefix(netmodel.MustParsePrefix("10.3.3.0/24"), []astopo.ASN{100})
	st, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/store.fst"
	if err := st.Save(path); err != nil {
		t.Fatal(err)
	}
	return path
}

type cliReport struct {
	TraceHash string         `json:"trace_hash"`
	Requests  int            `json:"requests"`
	ByStatus  map[string]int `json:"by_status"`
	Errors5xx int            `json:"errors_5xx"`
	Transport int            `json:"transport_errors"`
	QPS       float64        `json:"qps"`
}

func runCLI(t *testing.T, args ...string) (cliReport, string) {
	t.Helper()
	var stdout, stderr strings.Builder
	if err := run(context.Background(), args, &stdout, &stderr); err != nil {
		t.Fatalf("run(%v): %v\nstderr: %s", args, err, stderr.String())
	}
	var rep cliReport
	if err := json.Unmarshal([]byte(stdout.String()), &rep); err != nil {
		t.Fatalf("report is not JSON: %v\n%s", err, stdout.String())
	}
	return rep, stderr.String()
}

// TestLoadtestSmoke is the `make loadtest` gate: a short seeded run
// against the in-process serving stack must produce nonzero QPS and
// zero 5xx.
func TestLoadtestSmoke(t *testing.T) {
	store := smokeStore(t)
	rep, stderr := runCLI(t,
		"-store", store, "-requests", "2000", "-seed", "7",
		"-concurrency", "8", "-assert-healthy")
	if rep.QPS <= 0 {
		t.Errorf("QPS = %v, want > 0", rep.QPS)
	}
	if rep.Errors5xx != 0 || rep.Transport != 0 {
		t.Errorf("unhealthy smoke run: %+v", rep)
	}
	if rep.Requests != 2000 {
		t.Errorf("requests = %d, want 2000", rep.Requests)
	}
	if !strings.Contains(stderr, "trace ") || !strings.Contains(stderr, "in-process") {
		t.Errorf("stderr missing plan/target lines:\n%s", stderr)
	}
	// The in-process server runs uncached unless -cache asks otherwise.
	if !strings.Contains(stderr, "in-process (workers=256 cache=0)") {
		t.Errorf("default in-process target is not uncached:\n%s", stderr)
	}
}

// TestTraceDeterminism: two CLI runs with the same seed report the
// same trace hash (the workload is reproducible end to end, through
// flag parsing and store loading); a different seed changes it.
func TestTraceDeterminism(t *testing.T) {
	store := smokeStore(t)
	base := []string{"-store", store, "-requests", "500", "-concurrency", "4"}
	rep1, _ := runCLI(t, append(base, "-seed", "11")...)
	rep2, _ := runCLI(t, append(base, "-seed", "11")...)
	rep3, _ := runCLI(t, append(base, "-seed", "12")...)
	if rep1.TraceHash == "" || rep1.TraceHash != rep2.TraceHash {
		t.Errorf("same seed, different traces: %q vs %q", rep1.TraceHash, rep2.TraceHash)
	}
	if rep3.TraceHash == rep1.TraceHash {
		t.Errorf("different seeds share trace %q", rep1.TraceHash)
	}
	// Same trace against the same store: identical status breakdown.
	if len(rep1.ByStatus) == 0 || rep1.ByStatus["200"] != rep2.ByStatus["200"] {
		t.Errorf("status breakdown diverged: %v vs %v", rep1.ByStatus, rep2.ByStatus)
	}
}

// TestLiveTargetMode drives a real HTTP server (the production engine
// behind httptest) through the -target path.
func TestLiveTargetMode(t *testing.T) {
	store := smokeStore(t)
	st, err := footstore.Open(store)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(offnetserve.New(st, offnetserve.Config{Workers: 16, CacheSize: 64}))
	defer srv.Close()

	rep, stderr := runCLI(t,
		"-store", store, "-target", srv.URL, "-requests", "300",
		"-concurrency", "4", "-assert-healthy")
	if rep.Transport != 0 || rep.Errors5xx != 0 {
		t.Fatalf("live run unhealthy: %+v\n%s", rep, stderr)
	}
	if rep.ByStatus["200"] == 0 {
		t.Error("no 200s over the wire")
	}
}

// TestOutFileAndBadFlags: -out writes the report to a file; missing
// -store and an unreadable store fail.
func TestOutFileAndBadFlags(t *testing.T) {
	store := smokeStore(t)
	out := t.TempDir() + "/report.json"
	var stdout, stderr strings.Builder
	if err := run(context.Background(),
		[]string{"-store", store, "-requests", "100", "-out", out}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	if stdout.Len() != 0 {
		t.Errorf("with -out, stdout should be empty, got %q", stdout.String())
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep cliReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("report file is not JSON: %v", err)
	}
	if rep.Requests != 100 {
		t.Errorf("report requests = %d", rep.Requests)
	}

	if err := run(context.Background(), nil, &stdout, &stderr); err == nil {
		t.Error("missing -store should fail")
	}
	if err := run(context.Background(), []string{"-store", store + ".nope"}, &stdout, &stderr); err == nil {
		t.Error("missing store file should fail")
	}
	if err := run(context.Background(), []string{"-store", store, "-requests", "0"}, &stdout, &stderr); err == nil {
		t.Error("zero requests should fail")
	}
}

// TestRejectsReplacedFlagValues: a value the plan, the driver or the
// in-process server would replace is an error before the plan is
// built; the documented zeros still run.
func TestRejectsReplacedFlagValues(t *testing.T) {
	store := smokeStore(t)
	for _, bad := range [][]string{
		{"-workers", "0"},     // the server would run 256 workers
		{"-concurrency", "0"}, // the driver would keep 32 in flight
		{"-cache", "-1"},      // the server would disable its cache
		{"-zipf", "0"},        // the plan would use 1.2
		{"-rate", "-5"},       // the plan would not pace
		{"-batch", "-2"},      // the plan would send single requests
		// Burst settings the schedule would never fire: it replaces a
		// factor <= 0 with 1 and bursts only when -rate, -burst-period
		// and -burst-dur are all positive.
		{"-burst-factor", "0"},
		{"-burst-factor", "-3"},
		{"-burst-factor", "NaN"},
		{"-rate", "1000", "-burst-period", "-1s"},
		{"-rate", "1000", "-burst-dur", "-200ms"},
		{"-rate", "1000", "-burst-factor", "4", "-burst-period", "-1s", "-burst-dur", "200ms"},
		{"-rate", "1000", "-burst-factor", "4", "-burst-period", "1s"},
		{"-rate", "1000", "-burst-factor", "4", "-burst-dur", "200ms"},
		{"-burst-factor", "4", "-burst-period", "1s", "-burst-dur", "200ms"},
	} {
		var stdout, stderr strings.Builder
		args := append([]string{"-store", store, "-requests", "50"}, bad...)
		err := run(context.Background(), args, &stdout, &stderr)
		if err == nil {
			t.Errorf("run(%v) accepted", bad)
		}
		if strings.Contains(stderr.String(), "plan:") {
			t.Errorf("run(%v) built a plan before rejecting the flag:\n%s", bad, stderr.String())
		}
	}
	runCLI(t, "-store", store, "-requests", "50", "-cache", "0", "-batch", "0", "-rate", "0")
	runCLI(t, "-store", store, "-requests", "50", "-rate", "5000",
		"-burst-factor", "4", "-burst-period", "10ms", "-burst-dur", "2ms")
}
