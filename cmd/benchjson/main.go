// Command benchjson turns `go test -bench` text output into a stable
// JSON document for CI trend tracking. Reading stdin, it tees: input
// passes through to stdout unchanged (so the human-readable table
// still shows in the terminal), while every benchmark result line is
// parsed and the sorted set written to -out. Given positional file
// arguments it reads those instead — several runs can then land in one
// document without clobbering another suite's report:
//
//	go test -bench=. -benchmem -run='^$' ./internal/core | benchjson -out BENCH_pipeline.json
//	benchjson -out BENCH_offnetd.json serve-on.txt serve-off.txt
//
// Besides the standard ns/op, B/op, and allocs/op columns, any custom
// metrics a benchmark reports via b.ReportMetric (qps, p99_ns, ...)
// are captured under "extras". A name seen several times (`go test
// -count N`, or the same suite in two inputs) becomes one row holding
// the median of each column, the number of runs, and ns/op's min and
// max.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// contextKeys are the `go test` preamble lines worth keeping (machine
// identification for comparing results across hosts).
var contextKeys = []string{"goos", "goarch", "pkg", "cpu"}

// result is one row: a single run as parsed, or after finish the
// medians over every run of its name.
type result struct {
	Name        string             `json:"name"`
	Runs        int                `json:"runs"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	NsPerOpMin  float64            `json:"ns_per_op_min"`
	NsPerOpMax  float64            `json:"ns_per_op_max"`
	BytesPerOp  int64              `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64              `json:"allocs_per_op,omitempty"`
	Extras      map[string]float64 `json:"extras,omitempty"`
}

type document struct {
	Context    map[string]string `json:"context,omitempty"`
	Benchmarks []result          `json:"benchmarks"`

	byName map[string][]result // every run, across inputs; folded by finish()
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchjson: ")
	out := flag.String("out", "BENCH_pipeline.json", "file to write the parsed results to")
	flag.Parse()

	doc := newDocument()
	if args := flag.Args(); len(args) > 0 {
		for _, path := range args {
			f, err := os.Open(path)
			if err != nil {
				log.Fatal(err)
			}
			err = doc.consume(f, os.Stdout)
			f.Close()
			if err != nil {
				log.Fatalf("%s: %v", path, err)
			}
		}
	} else if err := doc.consume(os.Stdin, os.Stdout); err != nil {
		log.Fatal(err)
	}
	doc.finish()
	if len(doc.Benchmarks) == 0 {
		log.Fatal("no benchmark result lines in the input")
	}
	raw, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(*out, append(raw, '\n'), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d results to %s\n", len(doc.Benchmarks), *out)
}

func newDocument() *document {
	return &document{Context: map[string]string{}, byName: map[string][]result{}}
}

// parse collects one input into a fresh document — the single-input
// form the tests use.
func parse(r io.Reader, w io.Writer) (*document, error) {
	doc := newDocument()
	if err := doc.consume(r, w); err != nil {
		return nil, err
	}
	doc.finish()
	return doc, nil
}

// consume tees r to w while collecting benchmark lines into the
// document. Every observation of a name is kept for finish.
func (doc *document) consume(r io.Reader, w io.Writer) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintln(w, line)
		if res, ok := parseBenchLine(line); ok {
			doc.byName[res.Name] = append(doc.byName[res.Name], res)
			continue
		}
		for _, key := range contextKeys {
			if v, ok := strings.CutPrefix(line, key+": "); ok {
				doc.Context[key] = strings.TrimSpace(v)
			}
		}
	}
	return sc.Err()
}

// finish folds each name's runs into one row and sorts the rows.
func (doc *document) finish() {
	if len(doc.Context) == 0 {
		doc.Context = nil
	}
	doc.Benchmarks = doc.Benchmarks[:0]
	for _, runs := range doc.byName {
		doc.Benchmarks = append(doc.Benchmarks, fold(runs))
	}
	sort.Slice(doc.Benchmarks, func(i, j int) bool { return doc.Benchmarks[i].Name < doc.Benchmarks[j].Name })
}

// fold summarizes the runs of one name: the median of each column
// (an extra over the runs that report it) and ns/op's range.
func fold(runs []result) result {
	var iters, ns, bytesPerOp, allocs []float64
	extras := map[string][]float64{}
	for _, r := range runs {
		iters = append(iters, float64(r.Iterations))
		ns = append(ns, r.NsPerOp)
		bytesPerOp = append(bytesPerOp, float64(r.BytesPerOp))
		allocs = append(allocs, float64(r.AllocsPerOp))
		for k, v := range r.Extras {
			extras[k] = append(extras[k], v)
		}
	}
	row := result{
		Name:        runs[0].Name,
		Runs:        len(runs),
		Iterations:  int64(median(iters)),
		NsPerOp:     median(ns),
		NsPerOpMin:  slices.Min(ns),
		NsPerOpMax:  slices.Max(ns),
		BytesPerOp:  int64(median(bytesPerOp)),
		AllocsPerOp: int64(median(allocs)),
	}
	for k, vs := range extras {
		if row.Extras == nil {
			row.Extras = map[string]float64{}
		}
		row.Extras[k] = median(vs)
	}
	return row
}

// median sorts vs in place and returns its middle value, or the mean
// of the two middle values when the count is even.
func median(vs []float64) float64 {
	slices.Sort(vs)
	n := len(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}

// parseBenchLine parses one result line, e.g.
//
//	BenchmarkServe1M-8   1   341381083 ns/op   58884 qps   16383 p50_ns   94125560 B/op   848252 allocs/op
//
// The -N GOMAXPROCS suffix is stripped. After the iteration count the
// line is (value, unit) pairs: ns/op, B/op, and allocs/op land in
// dedicated fields, anything else (b.ReportMetric output) in Extras.
func parseBenchLine(line string) (result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return result{}, false
	}
	name := fields[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return result{}, false
	}
	res := result{Name: name, Iterations: iters}
	sawNsPerOp := false
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return result{}, false
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			res.NsPerOp = v
			sawNsPerOp = true
		case "B/op":
			res.BytesPerOp = int64(v)
		case "allocs/op":
			res.AllocsPerOp = int64(v)
		default:
			if res.Extras == nil {
				res.Extras = map[string]float64{}
			}
			res.Extras[unit] = v
		}
	}
	if !sawNsPerOp {
		return result{}, false
	}
	return res, true
}
