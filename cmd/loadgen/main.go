// Command loadgen replays a seeded, deterministic workload against an
// offnetd server and reports throughput, latency quantiles, and error
// counts as JSON. The workload is derived from the footprint store
// itself — hot IPs are zipfian draws over the store's real prefixes,
// AS and footprint queries come from its actual populations — so the
// traffic is synthetic but realistic, and two runs with the same seed
// send byte-identical request traces (the report carries the trace
// hash to prove it).
//
// Usage:
//
//	loadgen -store offnets.fst [-requests 100000] [-seed 1] [-concurrency 32]
//	        [-batch 0] [-zipf 1.2] [-rate 0] [-burst-factor 1]
//	        [-burst-period 0] [-burst-dur 0] [-out report.json]
//	        [-target http://host:8097 | -cache 0 -workers 256]
//	        [-assert-healthy]
//
// With -target, requests go to a live daemon over HTTP. Without it,
// loadgen builds the production serving engine in-process from the
// same store and drives it directly — no socket, no second process —
// which is how `make loadtest` smoke-checks the serving stack. The
// committed serving benchmarks (BENCH_offnetd.json) come from the
// `go test -bench` suite in internal/loadgen (`make bench-serve`).
//
// -rate R paces arrivals open-loop at R req/s (0 = as fast as the
// concurrency allows); -burst-factor F with -burst-period P and
// -burst-dur D multiplies the rate by F during the first D of every P.
// A factor other than 1 needs R, P and D all positive.
// -batch N folds the IP lookups into POST /v1/batch bodies of N
// addresses. -assert-healthy exits nonzero if the run saw any 5xx or
// transport error, for use in CI.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"offnetscope/internal/footstore"
	"offnetscope/internal/loadgen"
	"offnetscope/internal/obs"
	"offnetscope/internal/offnetserve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("loadgen: ")
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		log.Fatal(err)
	}
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	storePath := fs.String("store", "", "footstore file the workload is derived from (required)")
	target := fs.String("target", "", "base URL of a live offnetd; empty = drive an in-process server")
	requests := fs.Int("requests", 100000, "requests to schedule")
	seed := fs.Int64("seed", 1, "workload seed; same seed = identical trace")
	concurrency := fs.Int("concurrency", 32, "max in-flight requests")
	batch := fs.Int("batch", 0, "fold IP lookups into /v1/batch bodies of this size (0 = single requests)")
	zipf := fs.Float64("zipf", 1.2, "zipf skew for hot IPs and ASes (> 1)")
	rate := fs.Float64("rate", 0, "open-loop arrival rate in req/s (0 = unpaced)")
	burstFactor := fs.Float64("burst-factor", 1, "rate multiplier inside burst phases")
	burstPeriod := fs.Duration("burst-period", 0, "burst phase period")
	burstDur := fs.Duration("burst-dur", 0, "burst phase length at the start of each period")
	outPath := fs.String("out", "", "write the JSON report here (default stdout)")
	cacheSize := fs.Int("cache", 0, "in-process server: query-cache entries (0, the default, disables)")
	workers := fs.Int("workers", 256, "in-process server: worker-pool size")
	assertHealthy := fs.Bool("assert-healthy", false, "exit nonzero if the run saw any 5xx or transport error")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *storePath == "" {
		fs.Usage()
		return fmt.Errorf("-store is required")
	}
	// The plan, the driver and the in-process server read each of these
	// values as a default or as "off", so the run would use settings
	// other than the ones it was given.
	var bad string
	switch {
	case *concurrency < 1:
		bad = "-concurrency must be at least 1"
	case *batch < 0:
		bad = "-batch must not be negative (0: single requests)"
	case !(*zipf > 1): // NaN fails too
		bad = "-zipf must be greater than 1"
	case !(*rate >= 0):
		bad = "-rate must not be negative (0: unpaced)"
	case *cacheSize < 0:
		bad = "-cache must not be negative (0 disables)"
	case *workers < 1:
		bad = "-workers must be at least 1"
	case !(*burstFactor > 0): // NaN fails too
		bad = "-burst-factor must be greater than 0 (1: no bursts)"
	case *burstPeriod < 0:
		bad = "-burst-period must not be negative (0: no bursts)"
	case *burstDur < 0:
		bad = "-burst-dur must not be negative (0: no bursts)"
	case *burstFactor != 1 && (*rate == 0 || *burstPeriod == 0 || *burstDur == 0):
		bad = "-burst-factor other than 1 needs a positive -rate, -burst-period and -burst-dur, or no burst ever fires"
	}
	if bad != "" {
		fs.Usage()
		return errors.New(bad)
	}

	st, err := footstore.Open(*storePath)
	if err != nil {
		return err
	}
	plan, err := loadgen.BuildPlan(st, loadgen.PlanConfig{
		Seed:        *seed,
		Requests:    *requests,
		ZipfS:       *zipf,
		BatchSize:   *batch,
		Rate:        *rate,
		BurstFactor: *burstFactor,
		BurstPeriod: *burstPeriod,
		BurstDur:    *burstDur,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "plan: %d requests, %d lookups, trace %s\n",
		len(plan.Requests), plan.Lookups, plan.Hash())

	var (
		tgt  loadgen.Target
		opts = loadgen.Options{
			Concurrency: *concurrency,
			Registry:    obs.NewRegistry("loadgen"),
		}
	)
	if *target != "" {
		opts.BaseURL = *target
		// Keep one reusable connection per in-flight request. The
		// default transport keeps only 2 idle connections per host, so
		// at higher concurrency most requests would open a new one and
		// the report would measure connection set-up more than answers.
		tr := http.DefaultTransport.(*http.Transport).Clone()
		tr.MaxIdleConns = *concurrency
		tr.MaxIdleConnsPerHost = *concurrency
		tr.MaxConnsPerHost = *concurrency
		defer tr.CloseIdleConnections()
		tgt = &http.Client{Transport: tr, Timeout: 30 * time.Second}
		fmt.Fprintf(stderr, "target: %s\n", *target)
	} else {
		srv := offnetserve.New(st, offnetserve.Config{Workers: *workers, CacheSize: *cacheSize})
		tgt = loadgen.HandlerTarget{Handler: srv}
		fmt.Fprintf(stderr, "target: in-process (workers=%d cache=%d)\n", *workers, *cacheSize)
	}

	rep, err := loadgen.Drive(ctx, plan, tgt, opts)
	if err != nil {
		return err
	}

	out := io.Writer(stdout)
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	if err := rep.WriteJSON(out); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "done: %d requests in %s (%.0f req/s, %.0f lookups/s, p99 %s)\n",
		len(plan.Requests), time.Duration(rep.DurationNs).Round(time.Millisecond),
		rep.QPS, rep.LookupsPerSec, time.Duration(rep.P99Ns))

	if *assertHealthy && (rep.Errors5xx > 0 || rep.Transport > 0) {
		return fmt.Errorf("unhealthy run: %d 5xx, %d transport errors", rep.Errors5xx, rep.Transport)
	}
	return nil
}
