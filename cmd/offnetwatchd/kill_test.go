package main

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"offnetscope/internal/chaos"
	"offnetscope/internal/footstore"
	"offnetscope/internal/offnetserve"
	"offnetscope/internal/rng"
)

// The kill-anytime suite: the real daemon, re-executed from this test
// binary, is SIGKILLed at seeded generation counts until it fills the
// timeline grid, while an in-process observer serves the same log
// directory the way offnetd -genlog does.

const daemonEnv = "OFFNETWATCHD_KILL_HELPER"

func TestMain(m *testing.M) {
	if os.Getenv(daemonEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
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

// TestKillAnytime is the kill-anytime gate for continuous measurement:
// SIGKILL the daemon before its first commit, on both sides of the
// -compact-keep budget and in the last third of the grid, then let it
// fill the grid. The final open must find no recovery artifact, the
// log must be byte-identical to a never-killed run, one more launch
// must change no byte, and the served view must only move forward.
func TestKillAnytime(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and kills the daemon")
	}
	const keep = 2
	root := t.TempDir()
	crashDir, cleanDir := filepath.Join(root, "crash"), filepath.Join(root, "clean")
	flags := []string{"-compact-keep", "2", "-interval", "10ms", "-wave-timeout", "30s", "-retries", "1"}

	obsCtx, obsCancel := context.WithCancel(context.Background())
	defer obsCancel()
	o := &observer{}
	obsDone := make(chan struct{})
	go func() { defer close(obsDone); o.run(obsCtx, crashDir) }()

	// The grid holds 31 generations; its last third starts at 21.
	g := rng.New(11).Fork("kill-plan")
	plan := []chaos.Kill{
		{At: 0, Signal: syscall.SIGKILL},
		{At: 1 + g.Intn(keep), Signal: syscall.SIGKILL},
		{At: keep + 1 + g.Intn(20-keep), Signal: syscall.SIGKILL},
		{At: 21 + g.Intn(10), Signal: syscall.SIGKILL},
	}
	h := &chaos.Harness{
		Env:  daemonEnv + "=1",
		Args: append([]string{"-log", crashDir}, flags...),
		Progress: func() (int, error) {
			_, next, err := footstore.PeekGenLog(crashDir)
			if errors.Is(err, fs.ErrNotExist) {
				return 0, nil
			}
			return int(next) - 1, err
		},
	}
	launches, err := h.Run(plan...)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("kill coverage: %s", chaos.Coverage(launches))
	var beforeCommit, withinBudget, pastBudget, lastThird bool
	for i, l := range launches[:len(plan)] {
		if !l.Sent {
			t.Errorf("launch %d: plan point %d missed:\n%s", i, l.At, l.Output)
		}
		beforeCommit = beforeCommit || (l.Sent && l.Left == 0)
		withinBudget = withinBudget || (l.Sent && l.Left >= 1 && l.Left <= keep)
		pastBudget = pastBudget || (l.Sent && l.SentAt > keep)
		lastThird = lastThird || (l.Sent && l.SentAt >= 21)
	}
	if !beforeCommit || !withinBudget || !pastBudget || !lastThird {
		t.Errorf("kill coverage: before the first commit %v, within the budget %v, past it %v, last third %v; want all",
			beforeCommit, withinBudget, pastBudget, lastThird)
	}
	final := launches[len(plan)]
	if final.Code != 0 || !strings.Contains(final.Output, "timeline grid full") {
		t.Fatalf("final launch exited %d without filling the grid:\n%s", final.Code, final.Output)
	}

	// Let the observer catch the final state, then stop it.
	time.Sleep(100 * time.Millisecond)
	obsCancel()
	<-obsDone
	if len(o.violations) > 0 {
		t.Errorf("served view: %v", o.violations)
	}
	if o.probes == 0 {
		t.Error("observation server never probed the served view")
	}

	// Every crash artifact was handled by an earlier launch.
	glog, rec, err := footstore.OpenGenLog(crashDir)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(rec.TornQuarantined) + len(rec.OrphanedRemoved) + rec.TempsRemoved; n > 0 {
		t.Errorf("completed run left %d recovery artifacts: %+v", n, rec)
	}
	if glog.Base() != 30 || glog.Last() != 31 {
		t.Errorf("final window [%d, %d], want [30, 31]", glog.Base(), glog.Last())
	}

	var out strings.Builder
	if err := run(context.Background(), append([]string{"-log", cleanDir}, flags...), &out); err != nil {
		t.Fatalf("never-killed run: %v\n%s", err, out.String())
	}
	logFiles := []string{"MANIFEST.glm", "gen-*.seg"}
	if err := chaos.CompareDirs(crashDir, cleanDir, logFiles...); err != nil {
		t.Fatalf("recovered log differs from the never-killed run: %v", err)
	}
	again, err := h.Launch(chaos.Kill{})
	if err != nil {
		t.Fatal(err)
	}
	if again.Code != 0 || !strings.Contains(again.Output, "timeline grid full") {
		t.Fatalf("launch on the full grid exited %d:\n%s", again.Code, again.Output)
	}
	if err := chaos.CompareDirs(crashDir, cleanDir, logFiles...); err != nil {
		t.Fatalf("a launch on the full grid changed the log: %v", err)
	}
	t.Logf("observer probed %d times, max generation %d", o.probes, o.maxLogGen)
}
