package main

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"offnetscope/internal/footstore"
	"offnetscope/internal/hg"
	"offnetscope/internal/obs"
)

// The wave engine is tested in internal/waves; this file covers the
// daemon envelope: flag parsing and the run-waves-commit-generations
// loop end to end against the loopback farm.

func TestParseFlagsValidation(t *testing.T) {
	for _, bad := range [][]string{
		{}, // no -log
		// A -min-coverage outside (0, 1] would disable or invert the
		// reduced-coverage verdict: NaN compares false with everything.
		{"-log", "d", "-min-coverage", "NaN"},
		{"-log", "d", "-min-coverage", "0"},
		{"-log", "d", "-min-coverage", "-0.5"},
		{"-log", "d", "-min-coverage", "1.01"},
		{"-log", "d", "-min-coverage", "+Inf"},
		{"-log", "d", "-waves", "-1"},
		// Values the scanner or the runner would replace: -retries -1
		// still makes one attempt, -concurrency below 1 runs 16 workers,
		// a negative -rate is unlimited, a zero -wave-timeout is 2m, a
		// negative -interval starts waves back to back and a negative
		// -compact-keep never compacts.
		{"-log", "d", "-retries", "-1"},
		{"-log", "d", "-concurrency", "0"},
		{"-log", "d", "-concurrency", "-4"},
		{"-log", "d", "-rate", "-5"},
		{"-log", "d", "-wave-timeout", "0"},
		{"-log", "d", "-wave-timeout", "-1s"},
		{"-log", "d", "-interval", "-1s"},
		{"-log", "d", "-compact-keep", "-2"},
	} {
		if _, err := parseFlags(bad); err == nil {
			t.Errorf("parseFlags(%v) accepted", bad)
		}
	}
	// The documented zeros and the smallest positive values stay valid.
	for _, ok := range [][]string{
		{"-min-coverage", "1"},
		{"-rate", "0", "-compact-keep", "0", "-interval", "0", "-retries", "0"},
		{"-concurrency", "1", "-wave-timeout", "1ms"},
	} {
		if _, err := parseFlags(append([]string{"-log", "d"}, ok...)); err != nil {
			t.Errorf("parseFlags(%v): %v", ok, err)
		}
	}
}

// TestRunFarmWaves drives the whole daemon loop twice against one log
// directory: the first run commits two generations, the second resumes
// the timeline and adds a third — the continuity a restarted
// continuous-measurement daemon owes its log.
func TestRunFarmWaves(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-log", dir, "-interval", "10ms", "-wave-timeout", "30s", "-retries", "1"}

	var out strings.Builder
	if err := run(context.Background(), append(args, "-waves", "2", "-metrics"), &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	glog, rec, err := footstore.OpenGenLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Committed != 2 || glog.Last() != 2 {
		t.Fatalf("after first run: committed=%d last=%d, want 2 generations\n%s",
			rec.Committed, glog.Last(), out.String())
	}
	// Every wave handshakes with all 10 servers and sends each of them
	// its HTTPS GET.
	snap := dumpedMetrics(t, out.String())
	if certs, headers := snap.Counter("probe.certs"), snap.Counter("probe.headers"); certs != 20 || headers != 20 {
		t.Errorf("probe.certs = %d, probe.headers = %d over 2 waves; want 10 of each per wave", certs, headers)
	}
	st, err := glog.Load(2)
	if err != nil {
		t.Fatal(err)
	}
	if st.Stats().Snapshots != 2 {
		t.Errorf("generation 2 holds %d snapshots, want 2", st.Stats().Snapshots)
	}
	// The demo farm's off-nets are confirmed: Google's two (ASes 64512
	// and 64513), Akamai's (64514) and the Netflix appliance (64521).
	// No on-net, impostor, background or partner AS may appear.
	for h, want := range map[hg.ID]string{
		hg.Google:  "[64512 64513]",
		hg.Akamai:  "[64514]",
		hg.Netflix: "[64521]",
	} {
		fp, _ := st.Footprint(h, st.Latest())
		if got := fmt.Sprint(fp); got != want {
			t.Errorf("%s footprint = %s, want %s", h, got, want)
		}
	}
	for _, h := range hg.All() {
		fp, _ := st.Footprint(h.ID, st.Latest())
		for _, as := range fp {
			if as >= 64515 && as <= 64520 {
				t.Errorf("%s footprint holds AS %d, which is no off-net", h.Name, as)
			}
		}
	}

	// Restart: one more wave continues the timeline.
	out.Reset()
	if err := run(context.Background(), append(args, "-waves", "1"), &out); err != nil {
		t.Fatalf("second run: %v\n%s", err, out.String())
	}
	glog, _, err = footstore.OpenGenLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	if glog.Last() != 3 {
		t.Fatalf("after restart: last generation = %d, want 3\n%s", glog.Last(), out.String())
	}
	st, err = glog.Load(3)
	if err != nil {
		t.Fatal(err)
	}
	if st.Stats().Snapshots != 3 {
		t.Errorf("generation 3 holds %d snapshots, want 3 (timeline must continue, not restart)",
			st.Stats().Snapshots)
	}
}

// TestRunCompacts: -compact-keep bounds the log after each commit.
func TestRunCompacts(t *testing.T) {
	dir := t.TempDir()
	var out strings.Builder
	err := run(context.Background(), []string{
		"-log", dir, "-waves", "3", "-interval", "10ms",
		"-wave-timeout", "30s", "-retries", "1", "-compact-keep", "1", "-metrics",
	}, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	glog, rec, err := footstore.OpenGenLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	if glog.Base() != 3 || glog.Last() != 3 || rec.Committed != 1 {
		t.Fatalf("log window [%d, %d] with %d committed, want exactly generation 3\n%s",
			glog.Base(), glog.Last(), rec.Committed, out.String())
	}
	snap := dumpedMetrics(t, out.String())
	for _, counter := range []string{"waves.committed", "funnel.drop.dnsnames_offnet", "funnel.cert_invalid.self-signed-leaf"} {
		if snap.Counter(counter) < 1 {
			t.Errorf("-metrics dump: %s = %d, want at least 1\n%s", counter, snap.Counter(counter), out.String())
		}
	}
}

// dumpedMetrics parses the registry that -metrics writes after the
// daemon's log lines.
func dumpedMetrics(t *testing.T, out string) obs.Snapshot {
	t.Helper()
	snap, err := obs.ParseSnapshot([]byte(out[strings.Index(out, "\n{")+1:]))
	if err != nil {
		t.Fatalf("-metrics dump: %v\n%s", err, out)
	}
	return snap
}

// TestRunCompactsAtStartup: -compact-keep holds even when no wave
// commits, so a daemon killed between a commit and its compaction, or
// restarted into a full grid, still ends within its budget.
func TestRunCompactsAtStartup(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-log", dir, "-interval", "10ms", "-wave-timeout", "30s", "-retries", "1"}
	var out strings.Builder
	if err := run(context.Background(), append(args, "-waves", "3"), &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out.Reset()
	if err := run(ctx, append(args, "-compact-keep", "2"), &out); err != nil {
		t.Fatalf("restart: %v\n%s", err, out.String())
	}
	base, next, err := footstore.PeekGenLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	if base != 2 || next != 4 {
		t.Fatalf("log window [%d, %d), want [2, 4): -compact-keep 2 not enforced at startup\n%s", base, next, out.String())
	}
	if !strings.Contains(out.String(), "compacted 1 generations (window now [2, 3])") {
		t.Errorf("startup compaction not reported:\n%s", out.String())
	}
}

// TestRunShutdownMidLoop: cancellation between waves exits cleanly.
func TestRunShutdownMidLoop(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(150 * time.Millisecond)
		cancel()
	}()
	var out strings.Builder
	err := run(ctx, []string{
		"-log", dir, "-interval", "1h", "-wave-timeout", "30s", "-retries", "1",
	}, &out)
	if err != nil {
		t.Fatalf("run under cancellation: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "shutting down") {
		t.Errorf("no shutdown line:\n%s", out.String())
	}
}
