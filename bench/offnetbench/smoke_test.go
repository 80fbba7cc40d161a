package main

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"slices"
	"testing"
	"time"
)

// TestSmoke runs every workload, and the traced replay once, on three
// snapshots with one-second phases. Every declared metric must come out
// with its unit, every check must pass, and two runs of the same seed —
// study-disk through offnetmap on disk and infer-mem in memory — must
// produce the same store digest.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the commands and runs every workload")
	}
	ctx := context.Background()
	dir := t.TempDir()
	b, err := buildBinaries(ctx, "../..", filepath.Join(dir, "bin"))
	if err != nil {
		t.Fatal(err)
	}
	sp := spec{Scale: 0.005, From: "2020-10", To: "2021-04"}
	run := func(workload string, trace bool) *result {
		t.Helper()
		var log bytes.Buffer
		e := &env{
			bins: b, work: filepath.Join(dir, fmt.Sprintf("%s-%t", workload, trace)), spec: sp,
			workload: workload, seed: 3, seconds: time.Second, trace: trace, log: &log,
		}
		t0 := time.Now()
		res, err := runWorkload(ctx, e)
		if err != nil {
			t.Fatalf("%s: %v\n%s", workload, err, log.Bytes())
		}
		t.Logf("%s (trace %t): %s", workload, trace, time.Since(t0).Round(time.Millisecond))
		var out bytes.Buffer
		if err := report(&out, e, res); err != nil {
			t.Fatalf("%s: %v", workload, err)
		}
		if res.Failed > 0 {
			t.Errorf("%s: %d of %d operations failed: %v\n%s", workload, res.Failed, res.Attempted, res.Failures, log.Bytes())
		}
		decl := endToEnd
		if trace {
			decl = perLayer
		}
		var want, got []string
		for _, m := range decl {
			want = append(want, m.Name)
			if !bytes.Contains(out.Bytes(), []byte(fmt.Sprintf("%s %s ", workload, m.Name))) ||
				!bytes.Contains(out.Bytes(), []byte(fmt.Sprintf(`"%s":{"value":`, m.Name))) {
				t.Errorf("%s: %s not printed with its unit", workload, m.Name)
			}
		}
		for name := range res.Metrics {
			got = append(got, name)
		}
		slices.Sort(want)
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Errorf("%s measured %v, declared %v", workload, got, want)
		}
		return res
	}
	digests := make(map[string]string)
	for _, w := range workloads {
		res := run(w, false)
		if d, ok := res.Digests["store"]; ok {
			digests[w] = d
		}
	}
	run(serveZipf, true)
	if digests[studyDisk] == "" || digests[studyDisk] != digests[inferMem] {
		t.Errorf("seed 3 store digests differ: %v", digests)
	}
}
