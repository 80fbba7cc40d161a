// Command offnetwatchd is the continuous-measurement daemon: it runs
// scheduled scan waves (internal/waves) against a fixed target list,
// runs the paper's §4 inference engine (core.Pipeline) over what each
// wave collected, and commits each wave as a new generation in an
// append-only, crash-safe generation log (footstore.GenLog).
// cmd/offnetd -genlog serves that log as a live timeline; the two
// daemons share nothing but the directory.
//
// Usage:
//
//	offnetwatchd -log DIR (-targets FILE | -farm) [-waves N] [-interval 15s]
//	             [-wave-timeout 2m] [-min-coverage 0.5] [-compact-keep 0]
//	             [-checkpoint DIR] [-concurrency 16] [-rate 0] [-retries 2]
//	             [-metrics]
//
// -targets names a file of "host:port ASN" lines (#-comments and blank
// lines ignored) — the live analogue of a cert-corpus target list
// already resolved through the IP-to-AS table. -targets mode has no
// trust roots and no AS-organization registry, so every chain is
// untrusted, no header is fetched and no off-net is confirmed: it
// exercises TLS probing and commits, not inference. -farm instead
// starts the demo farm (servefarm.StartDemo), a miniature loopback
// Internet with its own trust store and on-net registry, and scans
// that: Google, Akamai and Netflix on-nets and off-nets, a self-signed
// impostor, a partner sharing a Google certificate, and a background
// site. That is how the whole daemon loop is demoed and smoke-tested
// without touching real networks.
//
// Crash-only by construction, top to bottom:
//
//   - a wave is bounded by -wave-timeout; one that runs out of time or
//     concludes fewer than -min-coverage of its targets still commits,
//     with a "reduced-coverage" verdict;
//   - mid-wave progress is checkpointed to -checkpoint (default
//     DIR/waves-ck) after every probed batch, so a SIGKILL resumes the
//     wave where it stopped instead of re-probing concluded targets;
//   - a wave that concludes nothing at all fails without committing;
//     the daemon logs it and retries next -interval;
//   - the generation log's manifest rename is the only commit point:
//     kill the daemon at any instant and the log reopens to exactly the
//     committed generations, torn tails quarantined (cmd/soak -mode
//     kill scores precisely this);
//   - -compact-keep N bounds the log by dropping all but the newest N
//     generations after each commit; compaction is itself kill-safe.
//
// The daemon exits 0 when -waves waves have committed, when the
// timeline grid is full (31 snapshot slots), or on SIGINT/SIGTERM —
// a shutdown mid-wave leaves the checkpoint behind for the next
// incarnation. -metrics dumps the obs registry as JSON on exit.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"offnetscope/internal/astopo"
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
	logDir      string
	targetsPath string
	farmMode    bool

	interval    time.Duration
	maxWaves    int
	waveTimeout time.Duration
	minCoverage float64
	compactKeep int
	checkpoint  string

	concurrency int
	rate        int
	retries     int

	dumpMetrics bool
}

func parseFlags(args []string) (*watchdConfig, error) {
	cfg := &watchdConfig{}
	fs := flag.NewFlagSet("offnetwatchd", flag.ContinueOnError)
	fs.StringVar(&cfg.logDir, "log", "", "generation-log directory (required; created if missing)")
	fs.StringVar(&cfg.targetsPath, "targets", "", "target list file: one \"host:port ASN\" per line (no trust roots or AS-organization registry: confirms nothing)")
	fs.BoolVar(&cfg.farmMode, "farm", false, "scan the loopback demo farm, with its trust store and on-net registry, instead of -targets")
	fs.DurationVar(&cfg.interval, "interval", 15*time.Second, "pause between waves")
	fs.IntVar(&cfg.maxWaves, "waves", 0, "stop after N committed waves (0: run until the grid is full or a signal)")
	fs.DurationVar(&cfg.waveTimeout, "wave-timeout", 2*time.Minute, "deadline for one whole wave (expiry degrades the verdict, not the daemon)")
	fs.Float64Var(&cfg.minCoverage, "min-coverage", 0.5, "concluded-target fraction in (0, 1] below which a wave commits as reduced-coverage")
	fs.IntVar(&cfg.compactKeep, "compact-keep", 0, "keep only the newest N generations after each commit (0: never compact)")
	fs.StringVar(&cfg.checkpoint, "checkpoint", "", "mid-wave checkpoint directory (default: LOG/waves-ck)")
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
	if cfg.farmMode == (cfg.targetsPath != "") {
		fs.Usage()
		return nil, fmt.Errorf("exactly one of -targets or -farm is required")
	}
	if !(cfg.minCoverage > 0 && cfg.minCoverage <= 1) || cfg.maxWaves < 0 { // NaN fails the first test
		fs.Usage()
		return nil, fmt.Errorf("-min-coverage must be in (0, 1] and -waves not negative, got %v and %d", cfg.minCoverage, cfg.maxWaves)
	}
	if cfg.checkpoint == "" {
		cfg.checkpoint = filepath.Join(cfg.logDir, "waves-ck")
	}
	return cfg, nil
}

// parseTargets reads "host:port ASN" lines; blank lines and #-comments
// are skipped.
func parseTargets(path string) ([]waves.Target, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []waves.Target
	sc := bufio.NewScanner(f)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != 2 {
			return nil, fmt.Errorf("%s:%d: want \"host:port ASN\", got %q", path, line, text)
		}
		as, err := strconv.ParseUint(fields[1], 10, 32)
		if err != nil || as == 0 {
			return nil, fmt.Errorf("%s:%d: bad ASN %q", path, line, fields[1])
		}
		out = append(out, waves.Target{Addr: fields[0], AS: astopo.ASN(as)})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no targets", path)
	}
	return out, nil
}

func run(ctx context.Context, args []string, stdout io.Writer) error {
	cfg, err := parseFlags(args)
	if err != nil {
		return err
	}

	// -targets mode leaves the trust store and registry nil (empty).
	wcfg := waves.Config{
		Probe: probe.Config{
			Concurrency:   cfg.concurrency,
			RatePerSecond: cfg.rate,
			Retries:       cfg.retries,
		},
		WaveTimeout:   cfg.waveTimeout,
		MinCoverage:   cfg.minCoverage,
		CheckpointDir: cfg.checkpoint,
	}
	var targets []waves.Target
	if cfg.farmMode {
		farm, err := servefarm.StartDemo()
		if err != nil {
			return err
		}
		defer farm.Close()
		targets, wcfg.Prefixes = waves.FarmTargets(farm)
		wcfg.Trust, wcfg.Orgs = farm.Trust, farm.Orgs
		fmt.Fprintf(stdout, "farm mode: %d loopback servers\n", len(targets))
	} else {
		if targets, err = parseTargets(cfg.targetsPath); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "loaded %d targets from %s\n", len(targets), cfg.targetsPath)
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
			fmt.Fprintf(stdout, "wave %s committed as generation %d: verdict=%s concluded=%d/%d confirmed=%d resumed=%d elapsed=%s\n",
				res.Snapshot.Label(), res.Generation, res.Verdict,
				res.Concluded, res.Targets, res.Confirmed, res.Resumed, res.Elapsed.Round(time.Millisecond))
			if cfg.compactKeep > 0 {
				removed, err := glog.Compact(cfg.compactKeep)
				if err != nil {
					return fmt.Errorf("compacting log: %w", err)
				}
				if removed > 0 {
					fmt.Fprintf(stdout, "compacted %d generations (window now [%d, %d])\n",
						removed, glog.Base(), glog.Last())
				}
			}
		case errors.Is(err, waves.ErrGridExhausted):
			fmt.Fprintln(stdout, "timeline grid full: study window complete")
			return nil
		case errors.Is(err, waves.ErrWaveFailed):
			fmt.Fprintf(stdout, "wave %s failed (no targets concluded), retrying next interval\n", snap.Label())
		case ctx.Err() != nil:
			// Shutdown mid-wave: the checkpoint stays behind for the next
			// incarnation of the daemon.
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
