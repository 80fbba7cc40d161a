// Command offnetbench is offnetscope's end-to-end benchmark. From a seed
// it generates a scan corpus with worldgen, then drives the real
// worldgen → offnetmap → offnetd path and the in-process streaming
// engine through four workloads, checks every output, and prints each
// metric BENCHMARK.json declares as "workload metric value unit" lines
// followed by one JSON summary line.
//
// Run it from the repository root through bench/run.sh, which keeps the
// Go build cache and everything generated under .bench_build/:
//
//	bash bench/run.sh --workload study-disk --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh --seed 2                         # every workload
//	bash bench/run.sh --workload serve-zipf --trace 1  # per-layer replay
//	bash bench/run.sh --compare parent.jsonl change.jsonl
//
// Exit status: 0 when every output checked out, 1 when a check failed
// (the summary line says what), 2 when the benchmark itself could not
// run.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"syscall"
	"time"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// buildDir holds everything a run writes, relative to the repository
// root the benchmark runs from.
const buildDir = ".bench_build"

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("offnetbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "workload to run: all, "+fmt.Sprint(workloads))
	seed := fs.Int64("seed", 1, "seed the inputs are generated from")
	secs := fs.Int("seconds", 10, "how long each workload measures")
	trace := fs.Int("trace", 0, "1 replays the inputs layer by layer and reports the per-layer metrics instead")
	out := fs.String("out", filepath.Join(buildDir, "out"), "directory results.jsonl and trace spans are written to")
	compare := fs.Bool("compare", false, "compare two results.jsonl files given as arguments: PARENT CHANGE")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: offnetbench -compare PARENT.jsonl CHANGE.jsonl")
			return 2
		}
		if err := compareFiles(stdout, "BENCHMARK.json", fs.Arg(0), fs.Arg(1)); err != nil {
			fmt.Fprintln(stderr, "offnetbench:", err)
			return 2
		}
		return 0
	}
	names := workloads
	if *workload != "all" {
		if !slices.Contains(workloads, *workload) {
			fmt.Fprintf(stderr, "offnetbench: unknown workload %q\n", *workload)
			return 2
		}
		names = []string{*workload}
	}
	if *trace != 0 && *trace != 1 || *secs < 1 || *seed < 0 || fs.NArg() > 0 {
		fs.Usage()
		return 2
	}

	workRoot := filepath.Join(buildDir, "work")
	if err := os.MkdirAll(workRoot, 0o755); err != nil {
		fmt.Fprintln(stderr, "offnetbench:", err)
		return 2
	}
	work, err := os.MkdirTemp(workRoot, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "offnetbench:", err)
		return 2
	}
	defer os.RemoveAll(work)
	b, err := buildBinaries(ctx, ".", filepath.Join(work, "bin"))
	if err != nil {
		fmt.Fprintln(stderr, "offnetbench:", err)
		return 2
	}
	code := 0
	for _, name := range names {
		e := &env{
			bins: b, work: filepath.Join(work, name), out: *out, spec: defaultSpec,
			workload: name, seed: *seed, seconds: time.Duration(*secs) * time.Second,
			trace: *trace == 1, log: stderr,
		}
		res, err := runWorkload(ctx, e)
		if err != nil {
			fmt.Fprintf(stderr, "offnetbench: %s: %v\n", name, err)
			return 2
		}
		if err := report(stdout, e, res); err != nil {
			fmt.Fprintf(stderr, "offnetbench: %s: %v\n", name, err)
			return 2
		}
		if res.Failed > 0 {
			code = 1
		}
	}
	return code
}

// env is everything one workload run needs.
type env struct {
	bins     bins
	work     string // working directory, removed when the run ends
	out      string // where results.jsonl and spans go; "" writes nothing
	spec     spec
	workload string
	seed     int64
	seconds  time.Duration // measuring budget
	trace    bool
	log      io.Writer // progress, failures and the per-layer table
}

func runWorkload(ctx context.Context, e *env) (*result, error) {
	if err := os.MkdirAll(e.work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(e.work)
	switch {
	case e.trace:
		return runTrace(ctx, e)
	case e.workload == studyDisk:
		return runStudyDisk(ctx, e)
	case e.workload == inferMem:
		return runInferMem(ctx, e)
	default:
		return runServe(ctx, e)
	}
}

// result is one workload run: operations attempted and failed (records
// for the studies, requests for serving), the metrics, the uncalibrated
// times behind them, and the output digests the correctness checks
// compared.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Trace     int                `json:"trace"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Failures  map[string]int64   `json:"failures,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
	Raw       map[string]float64 `json:"raw,omitempty"`
	Digests   map[string]string  `json:"digests,omitempty"`
}

func newResult(e *env) *result {
	r := &result{
		Workload: e.workload,
		Seed:     e.seed,
		Failures: make(map[string]int64),
		Metrics:  make(map[string]float64),
		Raw:      make(map[string]float64),
		Digests:  make(map[string]string),
	}
	if e.trace {
		r.Trace = 1
	}
	return r
}

func (r *result) fail(why string, n int64) {
	r.Failed += n
	r.Failures[why] += n
}

func (r *result) failAll(failures map[string]int64) {
	for why, n := range failures {
		r.fail(why, n)
	}
}

// seed1Digests are the SHA-256 digests of offnetmap's growth table and
// of the footprint store for seed 1 on defaultSpec. Both study workloads
// check them: a change that alters what the methodology infers must
// update them on purpose.
var seed1Digests = map[string]string{
	"growth_table": "ef1d854e61fd79f60b6895fcc76c4c91331b6edccfe7c568dbce14867006e529",
	"store":        "d3dfb795ffafee5f25a21343e417108367c7a595e30f2f506ee34a2efcb73770",
}

// checkCommitted compares a seed-1 run's digests with seed1Digests; a
// mismatch fails every operation of the run.
func (r *result) checkCommitted(e *env, ops int64) {
	if e.seed != 1 || e.spec != defaultSpec {
		return
	}
	ok := true
	for name, got := range r.Digests {
		if want := seed1Digests[name]; got != want {
			fmt.Fprintf(e.log, "seed 1 %s digest %s, committed %s\n", name, got, want)
			ok = false
		}
	}
	if !ok {
		r.fail("seed1_digest_differs_from_committed", ops)
	}
}

// report prints one line per metric, then the summary JSON line, and
// appends the full result to results.jsonl under e.out.
func report(w io.Writer, e *env, res *result) error {
	decl := endToEnd
	if e.trace {
		decl = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(decl))
	for _, m := range decl {
		v, ok := res.Metrics[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s was not measured (%v)", m.Name, v)
		}
		metrics[m.Name] = value{v, m.Unit}
		fmt.Fprintf(w, "%s %s %s %s\n", res.Workload, m.Name, strconv.FormatFloat(v, 'g', -1, 64), m.Unit)
	}
	if len(res.Failures) > 0 {
		whys := make([]string, 0, len(res.Failures))
		for why := range res.Failures {
			whys = append(whys, why)
		}
		sort.Strings(whys)
		for _, why := range whys {
			fmt.Fprintf(e.log, "%s: failed %s: %d\n", res.Workload, why, res.Failures[why])
		}
	}
	if res.Attempted < 1 {
		return errors.New("no operation was attempted")
	}
	summary, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, metrics})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", summary)
	if e.out == "" {
		return nil
	}
	return appendResult(filepath.Join(e.out, "results.jsonl"), res)
}

func appendResult(path string, res *result) error {
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
