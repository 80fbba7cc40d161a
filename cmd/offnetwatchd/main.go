// Command offnetwatchd is the continuous-measurement daemon: it runs
// scheduled scan waves (internal/waves) against the demo farm, runs the
// paper's §4 inference engine (core.Pipeline) over what each wave
// collected, and commits each wave as a new generation in an
// append-only, crash-safe generation log (footstore.GenLog).
// cmd/offnetd -genlog serves that log as a live timeline; the two
// daemons share nothing but the directory.
//
// Usage:
//
//	offnetwatchd -log DIR [-waves N] [-interval 15s]
//	             [-wave-timeout 2m] [-min-coverage 0.5] [-compact-keep 0]
//	             [-concurrency 16] [-rate 0] [-retries 2] [-metrics]
//
// The demo farm (servefarm.StartDemo) is a miniature loopback Internet
// with its own trust store (§4.1) and on-net registry (§4.2): Google,
// Akamai and Netflix on-nets and off-nets, a self-signed impostor, a
// partner sharing a Google certificate, and a background site. It is
// the one thing the daemon scans, so the whole loop runs and is
// smoke-tested without touching real networks.
//
// Crash-only by construction, top to bottom:
//
//   - a wave is one sweep of the farm under -wave-timeout; one that
//     concludes fewer than -min-coverage of its targets still commits,
//     with a "reduced-coverage" verdict;
//   - a wave that concludes nothing fails without committing, and so
//     does one whose sweep -wave-timeout cut short: a partial sweep
//     concludes nothing. The daemon logs it and retries next -interval;
//   - the generation log's manifest rename is the only commit point:
//     kill the daemon at any instant and the log reopens to exactly the
//     committed generations, torn tails quarantined, and the wave that
//     was in flight is probed again on restart;
//   - -compact-keep N bounds the log by dropping all but the newest N
//     generations at startup and after each commit; compaction is
//     itself kill-safe.
//
// The kill suite (kill_test.go) proves this on the real daemon: it
// SIGKILLs it at seeded generation counts until the grid is full and
// requires the log byte-identical to a never-killed run.
//
// The daemon exits 0 when -waves waves have committed, when the
// timeline grid is full (31 snapshot slots), or on SIGINT/SIGTERM —
// a shutdown mid-wave commits nothing, and the next run probes that
// wave again. -metrics dumps the obs registry as JSON on exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"offnetscope/internal/footstore"
	"offnetscope/internal/obs"
	"offnetscope/internal/probe"
	"offnetscope/internal/servefarm"
	"offnetscope/internal/waves"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("offnetwatchd: ")
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

type watchdConfig struct {
	logDir string

	interval    time.Duration
	maxWaves    int
	waveTimeout time.Duration
	minCoverage float64
	compactKeep int

	concurrency int
	rate        int
	retries     int

	dumpMetrics bool
}

func parseFlags(args []string) (*watchdConfig, error) {
	cfg := &watchdConfig{}
	fs := flag.NewFlagSet("offnetwatchd", flag.ContinueOnError)
	fs.StringVar(&cfg.logDir, "log", "", "generation-log directory (required; created if missing)")
	fs.DurationVar(&cfg.interval, "interval", 15*time.Second, "pause between waves (0: none)")
	fs.IntVar(&cfg.maxWaves, "waves", 0, "stop after N committed waves (0: run until the grid is full or a signal)")
	fs.DurationVar(&cfg.waveTimeout, "wave-timeout", 2*time.Minute, "deadline for one wave's sweep (a sweep cut short commits nothing and is retried next interval)")
	fs.Float64Var(&cfg.minCoverage, "min-coverage", 0.5, "concluded-target fraction in (0, 1] below which a wave commits as reduced-coverage")
	fs.IntVar(&cfg.compactKeep, "compact-keep", 0, "keep only the newest N generations, at startup and after each commit (0: never compact)")
	fs.IntVar(&cfg.concurrency, "concurrency", 16, "probe worker-pool size")
	fs.IntVar(&cfg.rate, "rate", 0, "probe launches per second (0: unlimited)")
	fs.IntVar(&cfg.retries, "retries", 2, "probe retries with backoff+jitter per target")
	fs.BoolVar(&cfg.dumpMetrics, "metrics", false, "dump the metrics registry as JSON on exit")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if cfg.logDir == "" {
		fs.Usage()
		return nil, fmt.Errorf("-log is required")
	}
	// The wave runner and the scanner read each of these values as a
	// default, as unlimited or as "never", so the daemon would scan with
	// settings other than the ones it was given.
	var bad string
	switch {
	case !(cfg.minCoverage > 0 && cfg.minCoverage <= 1): // NaN fails too
		bad = fmt.Sprintf("-min-coverage must be in (0, 1], got %v", cfg.minCoverage)
	case cfg.maxWaves < 0:
		bad = "-waves must not be negative (0: until the grid is full)"
	case cfg.concurrency < 1:
		bad = "-concurrency must be at least 1"
	case cfg.rate < 0:
		bad = "-rate must not be negative (0: unlimited)"
	case cfg.retries < 0:
		bad = "-retries must not be negative"
	case cfg.waveTimeout <= 0:
		bad = "-wave-timeout must be positive"
	case cfg.interval < 0:
		bad = "-interval must not be negative (0: no pause)"
	case cfg.compactKeep < 0:
		bad = "-compact-keep must not be negative (0: never compact)"
	}
	if bad != "" {
		fs.Usage()
		return nil, errors.New(bad)
	}
	return cfg, nil
}

func run(ctx context.Context, args []string, stdout io.Writer) error {
	cfg, err := parseFlags(args)
	if err != nil {
		return err
	}

	farm, err := servefarm.StartDemo()
	if err != nil {
		return err
	}
	defer farm.Close()
	targets, prefixes := waves.FarmTargets(farm)
	fmt.Fprintf(stdout, "demo farm: %d loopback servers\n", len(targets))
	wcfg := waves.Config{
		Probe: probe.Config{
			Concurrency:   cfg.concurrency,
			RatePerSecond: cfg.rate,
			Retries:       cfg.retries,
		},
		Trust:       farm.Trust,
		Orgs:        farm.Orgs,
		WaveTimeout: cfg.waveTimeout,
		MinCoverage: cfg.minCoverage,
		Prefixes:    prefixes,
	}

	glog, rec, err := footstore.OpenGenLog(cfg.logDir)
	if err != nil {
		return err
	}
	if n := len(rec.TornQuarantined) + len(rec.OrphanedRemoved) + rec.TempsRemoved; n > 0 {
		fmt.Fprintf(stdout, "recovered log %s: %d committed, %d torn quarantined, %d orphans removed, %d temps removed\n",
			cfg.logDir, rec.Committed, len(rec.TornQuarantined), len(rec.OrphanedRemoved), rec.TempsRemoved)
	} else {
		fmt.Fprintf(stdout, "opened log %s: %d committed generations\n", cfg.logDir, rec.Committed)
	}
	wcfg.Metrics = obs.NewRegistry("offnetwatchd")
	glog.SetMetrics(wcfg.Metrics)
	compact := func() error {
		if cfg.compactKeep <= 0 {
			return nil
		}
		removed, err := glog.Compact(cfg.compactKeep)
		if err != nil {
			return fmt.Errorf("compacting log: %w", err)
		}
		if removed > 0 {
			fmt.Fprintf(stdout, "compacted %d generations (window now [%d, %d])\n",
				removed, glog.Base(), glog.Last())
		}
		return nil
	}
	// A daemon killed between a commit and its compaction, or restarted
	// with a smaller -compact-keep, holds more generations than the
	// budget: enforce it before the first wave, full grid or not.
	if err := compact(); err != nil {
		return err
	}

	runner, err := waves.NewRunner(glog, targets, wcfg)
	if err != nil {
		return err
	}
	defer runner.Close()
	if cfg.dumpMetrics {
		defer func() {
			wcfg.Metrics.Snapshot().WriteJSON(stdout)
			fmt.Fprintln(stdout)
		}()
	}

	committed := 0
	for cfg.maxWaves == 0 || committed < cfg.maxWaves {
		snap := runner.NextSnapshot()
		res, err := runner.RunWave(ctx)
		switch {
		case err == nil:
			committed++
			fmt.Fprintf(stdout, "wave %s committed as generation %d: verdict=%s concluded=%d/%d confirmed=%d elapsed=%s\n",
				res.Snapshot.Label(), res.Generation, res.Verdict,
				res.Concluded, res.Targets, res.Confirmed, res.Elapsed.Round(time.Millisecond))
			if err := compact(); err != nil {
				return err
			}
		case errors.Is(err, waves.ErrGridExhausted):
			fmt.Fprintln(stdout, "timeline grid full: study window complete")
			return nil
		case errors.Is(err, waves.ErrWaveFailed):
			fmt.Fprintf(stdout, "wave %s failed (no targets concluded), retrying next interval\n", snap.Label())
		case ctx.Err() != nil:
			// Shutdown mid-wave: nothing was committed, and the next run
			// of the daemon probes the wave again.
			fmt.Fprintln(stdout, "shutting down")
			return nil
		default:
			return err
		}
		if cfg.maxWaves > 0 && committed >= cfg.maxWaves {
			break
		}
		select {
		case <-ctx.Done():
			fmt.Fprintln(stdout, "shutting down")
			return nil
		case <-time.After(cfg.interval):
		}
	}
	fmt.Fprintf(stdout, "done: %d waves committed, log window [%d, %d]\n", committed, glog.Base(), glog.Last())
	return nil
}
