package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"offnetscope/internal/footstore"
	"offnetscope/internal/hg"
	"offnetscope/internal/obs"
	"offnetscope/internal/servefarm"
)

// The wave engine is tested in internal/waves; this file covers the
// daemon envelope: flag parsing, the targets-file format, and the
// run-waves-commit-generations loop end to end against the loopback
// farm.

func TestParseFlagsValidation(t *testing.T) {
	for _, bad := range [][]string{
		{},                                      // no -log
		{"-log", "d"},                           // neither -targets nor -farm
		{"-log", "d", "-targets", "f", "-farm"}, // both
		// A -min-coverage outside (0, 1] would disable or invert the
		// reduced-coverage verdict: NaN compares false with everything.
		{"-log", "d", "-farm", "-min-coverage", "NaN"},
		{"-log", "d", "-farm", "-min-coverage", "0"},
		{"-log", "d", "-farm", "-min-coverage", "-0.5"},
		{"-log", "d", "-farm", "-min-coverage", "1.01"},
		{"-log", "d", "-farm", "-min-coverage", "+Inf"},
		{"-log", "d", "-farm", "-waves", "-1"},
	} {
		if _, err := parseFlags(bad); err == nil {
			t.Errorf("parseFlags(%v) accepted", bad)
		}
	}
	if _, err := parseFlags([]string{"-log", "d", "-farm", "-min-coverage", "1"}); err != nil {
		t.Errorf("-min-coverage 1 rejected: %v", err)
	}
	cfg, err := parseFlags([]string{"-log", "/tmp/gl", "-farm"})
	if err != nil {
		t.Fatal(err)
	}
	if want := filepath.Join("/tmp/gl", "waves-ck"); cfg.checkpoint != want {
		t.Errorf("default checkpoint = %q, want %q", cfg.checkpoint, want)
	}
}

func TestParseTargets(t *testing.T) {
	path := filepath.Join(t.TempDir(), "targets.txt")
	body := "# demo list\n\n10.0.0.1:443 64512\n  10.0.0.2:443\t64513\n"
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	ts, err := parseTargets(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 2 || ts[0].Addr != "10.0.0.1:443" || ts[1].AS != 64513 {
		t.Fatalf("parseTargets = %+v", ts)
	}

	for name, body := range map[string]string{
		"empty":     "# only comments\n",
		"malformed": "10.0.0.1:443\n",
		"badASN":    "10.0.0.1:443 zero\n",
		"zeroASN":   "10.0.0.1:443 0\n",
	} {
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := parseTargets(path); err == nil {
			t.Errorf("%s targets file accepted", name)
		}
	}
}

// TestRunFarmWaves drives the whole daemon loop twice against one log
// directory: the first run commits two generations, the second resumes
// the timeline and adds a third — the continuity a restarted
// continuous-measurement daemon owes its log.
func TestRunFarmWaves(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-log", dir, "-farm", "-interval", "10ms", "-wave-timeout", "30s", "-retries", "1"}

	var out strings.Builder
	if err := run(context.Background(), append(args, "-waves", "2"), &out); err != nil {
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

// TestRunTargetsConfirmsNothing: -targets mode has no trust roots and
// no AS-organization registry, so even the demo farm's genuine
// off-nets conclude but never confirm, and no target gets a header
// request, which could change no verdict.
func TestRunTargetsConfirmsNothing(t *testing.T) {
	farm, err := servefarm.StartDemo()
	if err != nil {
		t.Fatal(err)
	}
	defer farm.Close()
	var list strings.Builder
	for i, s := range farm.Servers {
		fmt.Fprintf(&list, "%s %d\n", s.TLSAddr, farm.ASes[i])
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "targets.txt")
	if err := os.WriteFile(path, []byte(list.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run(context.Background(), []string{"-log", filepath.Join(dir, "gl"), "-targets", path, "-waves", "1", "-metrics"}, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	dump := out.String()
	if !strings.Contains(dump, "concluded=10/10 confirmed=0 ") {
		t.Errorf("want all 10 targets concluded and none confirmed:\n%s", dump)
	}
	snap, err := obs.ParseSnapshot([]byte(dump[strings.Index(dump, "\n{")+1:]))
	if err != nil {
		t.Fatalf("-metrics dump: %v\n%s", err, dump)
	}
	if certs, headers := snap.Counter("probe.certs"), snap.Counter("probe.headers"); certs != 10 || headers != 0 {
		t.Errorf("probe.certs = %d, probe.headers = %d; want 10 handshakes and no header request", certs, headers)
	}
}

// TestRunCompacts: -compact-keep bounds the log after each commit.
func TestRunCompacts(t *testing.T) {
	dir := t.TempDir()
	var out strings.Builder
	err := run(context.Background(), []string{
		"-log", dir, "-farm", "-waves", "3", "-interval", "10ms",
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
	dump := out.String()
	snap, err := obs.ParseSnapshot([]byte(dump[strings.Index(dump, "\n{")+1:]))
	if err != nil {
		t.Fatalf("-metrics dump: %v\n%s", err, dump)
	}
	for _, counter := range []string{"waves.committed", "funnel.drop.dnsnames_offnet", "funnel.cert_invalid.self-signed-leaf"} {
		if snap.Counter(counter) < 1 {
			t.Errorf("-metrics dump: %s = %d, want at least 1\n%s", counter, snap.Counter(counter), dump)
		}
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
		"-log", dir, "-farm", "-interval", "1h", "-wave-timeout", "30s", "-retries", "1",
	}, &out)
	if err != nil {
		t.Fatalf("run under cancellation: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "shutting down") {
		t.Errorf("no shutdown line:\n%s", out.String())
	}
}
