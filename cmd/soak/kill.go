package main

// Kill mode (-mode kill) is the crash-anytime acceptance gate for the
// continuous-measurement pipeline: a child process runs the real
// daemon workload — loopback scan farm, wave runner, append-only
// generation log with compaction — and the harness SIGKILLs it at
// seeded random instants, over and over, until the workload completes.
// While the killing happens, an in-process observation server follows
// the same log directory through offnetserve's generation watcher,
// exactly as cmd/offnetd -genlog would, proving the serving side never
// sees a torn or regressing view. The run passes when
//
//   - the final log opens with zero recovery artifacts (every torn
//     tail was quarantined by an earlier restart, never by the last
//     clean completion),
//   - the recovered log is byte-identical — manifest and every live
//     segment — to a never-killed run of the same workload,
//   - the observation server's served generation and snapshot count
//     only ever moved forward, and
//   - at least one SIGKILL actually landed (otherwise the run proved
//     nothing).

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"offnetscope/internal/footstore"
	"offnetscope/internal/offnetserve"
	"offnetscope/internal/probe"
	"offnetscope/internal/rng"
	"offnetscope/internal/servefarm"
	"offnetscope/internal/waves"
)

// soakKillHelperEnv carries the helper-process assignment as
// "logDir|targetWaves|keep". When set, the process is a measurement
// daemon to be killed, not a harness.
const soakKillHelperEnv = "SOAK_KILL_HELPER"

// maybeRunKillHelper turns this process into the kill-mode workload
// when the helper env var is set. Called first thing from main() and
// from TestMain, so both the real binary and the test binary can serve
// as the child.
func maybeRunKillHelper() {
	spec := os.Getenv(soakKillHelperEnv)
	if spec == "" {
		return
	}
	parts := strings.Split(spec, "|")
	if len(parts) != 3 {
		fmt.Fprintf(os.Stderr, "soak kill helper: bad spec %q\n", spec)
		os.Exit(2)
	}
	target, err1 := strconv.Atoi(parts[1])
	keep, err2 := strconv.Atoi(parts[2])
	if err1 != nil || err2 != nil {
		fmt.Fprintf(os.Stderr, "soak kill helper: bad spec %q\n", spec)
		os.Exit(2)
	}
	if err := killWorkload(parts[0], uint64(target), keep); err != nil {
		fmt.Fprintf(os.Stderr, "soak kill helper: %v\n", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// killWorkload is one incarnation of the measurement daemon: open the
// log, catch up on compaction a crash may have interrupted, then run
// waves over the demo farm until the log's newest generation reaches
// target, compacting to keep after each commit. Wave outcomes depend
// only on the farm's specs and ASes — never on its ephemeral ports or
// freshly minted leaves — and every step is resumable, so the final
// state is a pure function of (target, keep) no matter how many times
// earlier incarnations were killed.
func killWorkload(dir string, target uint64, keep int) error {
	farm, err := servefarm.StartDemo()
	if err != nil {
		return err
	}
	defer farm.Close()
	targets, prefixes := waves.FarmTargets(farm)

	glog, _, err := footstore.OpenGenLog(dir)
	if err != nil {
		return err
	}
	// Catch-up: a crash between append and compact leaves the log over
	// its budget; the clean run never is, so converge before waving.
	if _, err := glog.Compact(keep); err != nil {
		return err
	}
	if glog.Last() >= target {
		return nil
	}
	runner, err := waves.NewRunner(glog, targets, waves.Config{
		Probe: probe.Config{
			Concurrency: 8,
			Timeout:     5 * time.Second,
			Retries:     1,
		},
		Trust:         farm.Trust,
		Orgs:          farm.Orgs,
		WaveTimeout:   30 * time.Second,
		CheckpointDir: filepath.Join(dir, "waves-ck"),
		Prefixes:      prefixes,
	})
	if err != nil {
		return err
	}
	defer runner.Close()
	for glog.Last() < target {
		if _, err := runner.RunWave(context.Background()); err != nil {
			return err
		}
		if _, err := glog.Compact(keep); err != nil {
			return err
		}
	}
	return nil
}

// KillReport is kill mode's SLO verdict.
type KillReport struct {
	Seed  int64 `json:"seed"`
	Waves int   `json:"waves"`

	KillsRequested int `json:"kills_requested"`
	KillsLanded    int `json:"kills_landed"`
	Restarts       int `json:"restarts"`

	CommittedBase   uint64 `json:"committed_base"`
	CommittedCount  int    `json:"committed_count"`
	ByteIdentical   bool   `json:"byte_identical"`
	TornQuarantined int    `json:"torn_quarantined"`

	ObservedResponses     int    `json:"observed_responses"`
	ObservedMaxGeneration uint64 `json:"observed_max_generation"`

	Violations []string `json:"violations"`
	Pass       bool     `json:"pass"`
}

// observer follows the crash directory the way offnetd -genlog does —
// offnetserve plus the generation watcher — and records any backward
// movement in the served view.
type observer struct {
	mu         sync.Mutex
	probes     int
	maxLogGen  uint64
	lastGen    uint64
	lastSnaps  int
	violations []string
}

func (o *observer) run(ctx context.Context, dir string) {
	// Wait for the first committed generation, then boot a server from
	// it. LoadGeneration can race compaction, so retry until it sticks.
	var srv *offnetserve.Server
	for srv == nil {
		if ctx.Err() != nil {
			return
		}
		base, next, err := footstore.PeekGenLog(dir)
		if err == nil && next > base {
			if st, err := footstore.LoadGeneration(dir, next-1); err == nil {
				srv = offnetserve.New(st, offnetserve.Config{Workers: 4})
			}
		}
		if srv == nil {
			time.Sleep(5 * time.Millisecond)
		}
	}
	watchDone := make(chan struct{})
	go func() {
		defer close(watchDone)
		srv.WatchGenLog(ctx, dir, offnetserve.WatchConfig{
			Interval: 10 * time.Millisecond,
			OnReload: func(gen uint64, err error) {
				o.mu.Lock()
				defer o.mu.Unlock()
				if err != nil {
					o.violations = append(o.violations,
						fmt.Sprintf("observer: generation %d rejected: %v", gen, err))
					return
				}
				if gen > o.maxLogGen {
					o.maxLogGen = gen
				}
			},
		})
	}()
	// The prober: the served (generation, snapshot-count) pair must only
	// ever move forward, kills or not.
	for ctx.Err() == nil {
		gen := srv.Generation()
		snaps := srv.Store().Stats().Snapshots
		o.mu.Lock()
		o.probes++
		if gen < o.lastGen {
			o.violations = append(o.violations,
				fmt.Sprintf("observer: served generation went backward (%d -> %d)", o.lastGen, gen))
		}
		if snaps < o.lastSnaps {
			o.violations = append(o.violations,
				fmt.Sprintf("observer: served snapshots went backward (%d -> %d)", o.lastSnaps, snaps))
		}
		o.lastGen, o.lastSnaps = gen, snaps
		o.mu.Unlock()
		time.Sleep(5 * time.Millisecond)
	}
	<-watchDone
}

// soakKill runs kill mode end to end and scores it.
func soakKill(ctx context.Context, cfg *soakConfig, stderr io.Writer) (*KillReport, error) {
	root, err := os.MkdirTemp("", "soak-kill-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	crashDir := filepath.Join(root, "crash")
	cleanDir := filepath.Join(root, "clean")
	target := uint64(cfg.killWaves)

	rep := &KillReport{Seed: cfg.seed, Waves: cfg.killWaves, Violations: []string{}}

	// The observation server rides along for the whole killing spree.
	obsCtx, obsCancel := context.WithCancel(context.Background())
	o := &observer{}
	obsDone := make(chan struct{})
	go func() { defer close(obsDone); o.run(obsCtx, crashDir) }()

	// Kill loop: launch the workload, arm a seeded timer, SIGKILL if it
	// is still running when the timer fires, repeat until it completes.
	exe, err := os.Executable()
	if err != nil {
		obsCancel()
		return nil, err
	}
	kr := rng.New(uint64(cfg.seed)).Fork("soak-kill-delays")
	completed := false
	for rep.Restarts = 0; rep.Restarts < cfg.killRestarts && !completed; rep.Restarts++ {
		if err := ctx.Err(); err != nil {
			obsCancel()
			return nil, err
		}
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(),
			fmt.Sprintf("%s=%s|%d|%d", soakKillHelperEnv, crashDir, target, cfg.killKeep))
		cmd.Stderr = stderr
		if err := cmd.Start(); err != nil {
			obsCancel()
			return nil, err
		}
		waitc := make(chan error, 1)
		go func() { waitc <- cmd.Wait() }()
		// The deadline ramps with the attempt number: early incarnations
		// are killed almost immediately (mid farm startup, mid append,
		// mid compaction), later ones get enough room to finish. The
		// jitter keeps the exact instant seeded-random within the ramp.
		delay := time.Duration(8+int64(rep.Restarts)*6+kr.Int63n(12)) * time.Millisecond
		rep.KillsRequested++
		select {
		case err := <-waitc:
			if err != nil {
				obsCancel()
				return nil, fmt.Errorf("workload run %d failed: %w", rep.Restarts, err)
			}
			completed = true
		case <-time.After(delay):
			_ = cmd.Process.Kill() // SIGKILL: no handlers, no goodbyes
			<-waitc
			rep.KillsLanded++
		}
	}
	if !completed {
		rep.Violations = append(rep.Violations, "never-completed")
	}
	if rep.KillsLanded == 0 {
		rep.Violations = append(rep.Violations, "no-kill-landed")
	}

	// Let the observer catch the final state, then stop it.
	time.Sleep(100 * time.Millisecond)
	obsCancel()
	<-obsDone
	o.mu.Lock()
	rep.ObservedResponses = o.probes
	rep.ObservedMaxGeneration = o.maxLogGen
	rep.Violations = append(rep.Violations, o.violations...)
	o.mu.Unlock()

	if completed {
		// The last incarnation finished cleanly, so the final open must
		// find nothing to repair: every crash artifact was handled by an
		// earlier restart, none by us.
		glog, rec, err := footstore.OpenGenLog(crashDir)
		if err != nil {
			return nil, err
		}
		if len(rec.TornQuarantined)+len(rec.OrphanedRemoved)+rec.TempsRemoved > 0 {
			rep.Violations = append(rep.Violations, "recovery-artifacts-after-completion")
		}
		rep.CommittedBase = glog.Base()
		rep.CommittedCount = glog.Len()

		// Byte-identity: replay the identical workload with no kills and
		// compare manifest and every live segment.
		if err := killWorkload(cleanDir, target, cfg.killKeep); err != nil {
			return nil, fmt.Errorf("clean baseline: %w", err)
		}
		identical, why, err := compareGenLogs(crashDir, cleanDir)
		if err != nil {
			return nil, err
		}
		rep.ByteIdentical = identical
		if !identical {
			rep.Violations = append(rep.Violations, "not-byte-identical: "+why)
		}
	}
	rep.TornQuarantined, err = countSuffix(crashDir, ".torn")
	if err != nil {
		return nil, err
	}
	rep.Pass = len(rep.Violations) == 0
	return rep, nil
}

// compareGenLogs answers whether two generation-log directories hold
// the same committed state, byte for byte.
func compareGenLogs(a, b string) (bool, string, error) {
	abase, anext, err := footstore.PeekGenLog(a)
	if err != nil {
		return false, "", err
	}
	bbase, bnext, err := footstore.PeekGenLog(b)
	if err != nil {
		return false, "", err
	}
	if abase != bbase || anext != bnext {
		return false, fmt.Sprintf("windows differ: [%d,%d) vs [%d,%d)", abase, anext, bbase, bnext), nil
	}
	names := []string{"MANIFEST.glm"}
	for gen := abase; gen < anext; gen++ {
		names = append(names, fmt.Sprintf("gen-%08d.seg", gen))
	}
	for _, name := range names {
		ab, err := os.ReadFile(filepath.Join(a, name))
		if err != nil {
			return false, "", err
		}
		bb, err := os.ReadFile(filepath.Join(b, name))
		if err != nil {
			return false, "", err
		}
		if !bytes.Equal(ab, bb) {
			return false, name + " differs", nil
		}
	}
	return true, "", nil
}

// countSuffix counts directory entries whose name contains suffix
// (quarantined tails may carry .torn.N collision suffixes).
func countSuffix(dir, suffix string) (int, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, e := range ents {
		if !e.IsDir() && strings.Contains(e.Name(), suffix) {
			n++
		}
	}
	return n, nil
}
