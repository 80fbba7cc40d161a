package main

import (
	"strings"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: offnetscope/internal/core
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkStageValidate-8      	      22	  51234567 ns/op	 9092360 B/op	  164253 allocs/op
BenchmarkStageCertMatch       	     240	   5086158 ns/op
BenchmarkStudyJobs4-8         	       1	7275915451 ns/op	2316021840 B/op	29222907 allocs/op
PASS
ok  	offnetscope/internal/core	15.574s
`

func TestParse(t *testing.T) {
	var out strings.Builder
	doc, err := parse(strings.NewReader(sampleBench), &out)
	if err != nil {
		t.Fatal(err)
	}
	// Tee: input passes through byte-identically.
	if out.String() != sampleBench {
		t.Errorf("stdout not a passthrough:\n%s", out.String())
	}
	if doc.Context["goos"] != "linux" || doc.Context["pkg"] != "offnetscope/internal/core" {
		t.Errorf("context = %v", doc.Context)
	}
	if len(doc.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3", len(doc.Benchmarks))
	}
	// Sorted by name, -N suffix stripped.
	if doc.Benchmarks[0].Name != "BenchmarkStageCertMatch" || doc.Benchmarks[2].Name != "BenchmarkStudyJobs4" {
		t.Errorf("order: %v", doc.Benchmarks)
	}
	v := doc.Benchmarks[1] // BenchmarkStageValidate
	if v.Iterations != 22 || v.NsPerOp != 51234567 || v.BytesPerOp != 9092360 || v.AllocsPerOp != 164253 {
		t.Errorf("StageValidate = %+v", v)
	}
	// One run: its ns/op is the whole range.
	if v.Runs != 1 || v.NsPerOpMin != v.NsPerOp || v.NsPerOpMax != v.NsPerOp {
		t.Errorf("StageValidate runs/range = %+v", v)
	}
	// -benchmem columns absent → zero (and omitted from JSON).
	if m := doc.Benchmarks[0]; m.BytesPerOp != 0 || m.AllocsPerOp != 0 || m.NsPerOp != 5086158 {
		t.Errorf("StageCertMatch = %+v", m)
	}
}

// sampleServe is loadgen-style output: custom b.ReportMetric columns
// between ns/op and the -benchmem pair.
const sampleServe = `goos: linux
pkg: offnetscope/internal/loadgen
BenchmarkServe1MZipfianCacheOn-8  	       1	 341381083 ns/op	     58884 lookups/s	     16383 p50_ns	    262143 p999_ns	     65535 p99_ns	     58884 qps	94125560 B/op	  848252 allocs/op
PASS
`

func TestParseExtras(t *testing.T) {
	var out strings.Builder
	doc, err := parse(strings.NewReader(sampleServe), &out)
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Benchmarks) != 1 {
		t.Fatalf("parsed %d benchmarks, want 1", len(doc.Benchmarks))
	}
	b := doc.Benchmarks[0]
	if b.Name != "BenchmarkServe1MZipfianCacheOn" || b.NsPerOp != 341381083 ||
		b.BytesPerOp != 94125560 || b.AllocsPerOp != 848252 {
		t.Errorf("standard columns: %+v", b)
	}
	want := map[string]float64{
		"lookups/s": 58884, "p50_ns": 16383, "p999_ns": 262143, "p99_ns": 65535, "qps": 58884,
	}
	if len(b.Extras) != len(want) {
		t.Fatalf("extras = %v, want %v", b.Extras, want)
	}
	for k, v := range want {
		if b.Extras[k] != v {
			t.Errorf("extras[%q] = %v, want %v", k, b.Extras[k], v)
		}
	}
}

// TestMultipleInputs: consuming several bench outputs accumulates one
// sorted document, and a name seen in two inputs becomes one row over
// both runs.
func TestMultipleInputs(t *testing.T) {
	var out strings.Builder
	doc := newDocument()
	if err := doc.consume(strings.NewReader(sampleBench), &out); err != nil {
		t.Fatal(err)
	}
	if err := doc.consume(strings.NewReader(sampleServe), &out); err != nil {
		t.Fatal(err)
	}
	// A rerun of an existing name joins it.
	rerun := "BenchmarkStageCertMatch 	 100 	 999 ns/op\n"
	if err := doc.consume(strings.NewReader(rerun), &out); err != nil {
		t.Fatal(err)
	}
	doc.finish()

	if len(doc.Benchmarks) != 4 {
		t.Fatalf("parsed %d benchmarks, want 4: %+v", len(doc.Benchmarks), doc.Benchmarks)
	}
	names := make([]string, len(doc.Benchmarks))
	for i, b := range doc.Benchmarks {
		names[i] = b.Name
	}
	wantOrder := []string{
		"BenchmarkServe1MZipfianCacheOn", "BenchmarkStageCertMatch",
		"BenchmarkStageValidate", "BenchmarkStudyJobs4",
	}
	for i, w := range wantOrder {
		if names[i] != w {
			t.Fatalf("order = %v, want %v", names, wantOrder)
		}
	}
	if m := doc.Benchmarks[1]; m.Runs != 2 || m.NsPerOp != (999+5086158)/2.0 || m.Iterations != 170 ||
		m.NsPerOpMin != 999 || m.NsPerOpMax != 5086158 {
		t.Errorf("rerun not folded into a two-run row: %+v", m)
	}
	// Context merges across inputs.
	if doc.Context["goarch"] != "amd64" || doc.Context["pkg"] != "offnetscope/internal/loadgen" {
		t.Errorf("context = %v", doc.Context)
	}
	// Tee passed every input through.
	if !strings.Contains(out.String(), "BenchmarkStudyJobs4") || !strings.Contains(out.String(), "qps") {
		t.Error("tee output incomplete")
	}
}

func TestParseNoResults(t *testing.T) {
	var out strings.Builder
	doc, err := parse(strings.NewReader("no benchmarks here\n"), &out)
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Benchmarks) != 0 || doc.Context != nil {
		t.Errorf("doc = %+v", doc)
	}
}

// TestRepeatsFoldToMedians: -count N output keeps every run: the row
// holds each column's median, the run count and ns/op's min and max.
func TestRepeatsFoldToMedians(t *testing.T) {
	const repeats = `BenchmarkServe-2  1  300 ns/op  40 qps  1000 B/op  7 allocs/op
BenchmarkServe-2  1  100 ns/op  60 qps  3000 B/op  9 allocs/op
BenchmarkServe-2  1  200 ns/op  50 qps  2000 B/op  8 allocs/op
BenchmarkOdd-2  4  10 ns/op
BenchmarkOdd-2  2  20 ns/op  5 p50_ns
`
	var out strings.Builder
	doc, err := parse(strings.NewReader(repeats), &out)
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Benchmarks) != 2 {
		t.Fatalf("parsed %d rows, want 2: %+v", len(doc.Benchmarks), doc.Benchmarks)
	}
	odd, serve := doc.Benchmarks[0], doc.Benchmarks[1]
	if serve.Runs != 3 || serve.NsPerOp != 200 || serve.NsPerOpMin != 100 || serve.NsPerOpMax != 300 ||
		serve.Iterations != 1 || serve.BytesPerOp != 2000 || serve.AllocsPerOp != 8 || serve.Extras["qps"] != 50 {
		t.Errorf("three runs = %+v", serve)
	}
	// An even count takes the mean of the middle two; an extra only one
	// run reported is that run's value.
	if odd.Runs != 2 || odd.NsPerOp != 15 || odd.Iterations != 3 || odd.NsPerOpMin != 10 ||
		odd.NsPerOpMax != 20 || odd.Extras["p50_ns"] != 5 {
		t.Errorf("two runs = %+v", odd)
	}
}
