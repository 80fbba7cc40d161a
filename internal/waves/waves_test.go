package waves

import (
	"context"
	"errors"
	"net"
	"slices"
	"testing"
	"time"

	"offnetscope/internal/astopo"
	"offnetscope/internal/footstore"
	"offnetscope/internal/hg"
	"offnetscope/internal/netmodel"
	"offnetscope/internal/obs"
	"offnetscope/internal/probe"
	"offnetscope/internal/servefarm"
	"offnetscope/internal/timeline"
)

// testFarm starts the demo farm (servefarm.StartDemo): server i sits
// in AS 64512+i.
func testFarm(t *testing.T) (*servefarm.Demo, []Target) {
	t.Helper()
	farm, err := servefarm.StartDemo()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(farm.Close)
	targets, _ := FarmTargets(farm)
	return farm, targets
}

func testConfig(farm *servefarm.Demo) Config {
	_, prefixes := FarmTargets(farm)
	return Config{
		Probe: probe.Config{
			Concurrency: 8,
			Timeout:     2 * time.Second,
		},
		Trust:       farm.Trust,
		Orgs:        farm.Orgs,
		WaveTimeout: 30 * time.Second,
		Prefixes:    prefixes,
	}
}

// The demo farm's ASes by role.
const (
	asGoogleOffnet1 = 64512 + iota
	asGoogleOffnet2
	asAkamaiOffnet
	asBackground
	asImpostor
	asGoogleOnnet
	asAkamaiOnnet
	asPartner
	asNetflixOnnet
	asNetflixOCA
)

// deadAddr returns an address nothing listens on.
func deadAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

func TestWaveCommitsGenerations(t *testing.T) {
	farm, targets := testFarm(t)
	log, _, err := footstore.OpenGenLog(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry("waves-test")
	cfg := testConfig(farm)
	cfg.Metrics = reg

	r, err := NewRunner(log, targets, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.NextSnapshot() != 0 {
		t.Fatalf("fresh runner NextSnapshot = %s", r.NextSnapshot())
	}

	res, err := r.RunWave(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Generation != 1 || res.Snapshot != 0 {
		t.Fatalf("first wave = generation %d snapshot %s", res.Generation, res.Snapshot)
	}
	if res.Verdict != VerdictFull {
		t.Fatalf("verdict = %q (%+v)", res.Verdict, res)
	}
	if res.Concluded != len(targets) || res.Failed != 0 {
		t.Fatalf("concluded %d failed %d of %d", res.Concluded, res.Failed, res.Targets)
	}
	// Two Google off-nets, one Akamai and the Netflix appliance. The
	// impostor (§4.1), the partner (§4.3), the on-nets and the
	// background site must not confirm.
	if res.Confirmed != 4 {
		t.Fatalf("confirmed = %d, want 4", res.Confirmed)
	}

	st, err := log.Load(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []struct {
		id   hg.ID
		ases []astopo.ASN
	}{
		{hg.Google, []astopo.ASN{asGoogleOffnet1, asGoogleOffnet2}},
		{hg.Akamai, []astopo.ASN{asAkamaiOffnet}},
		{hg.Netflix, []astopo.ASN{asNetflixOCA}},
	} {
		got, ok := st.Footprint(want.id, 0)
		if !ok || !slices.Equal(got, want.ases) {
			t.Errorf("%s footprint = %v, %t; want %v", want.id, got, ok, want.ases)
		}
	}
	for _, h := range hg.All() {
		fp, _ := st.Footprint(h.ID, 0)
		for _, as := range fp {
			if as >= asBackground && as <= asNetflixOnnet {
				t.Errorf("%s footprint holds AS %d, which is no off-net", h.Name, as)
			}
		}
	}
	for _, name := range []string{"funnel.drop.dnsnames_offnet", "funnel.cert_invalid.self-signed-leaf"} {
		if reg.Counter(name).Value() < 1 {
			t.Errorf("%s = %d, want at least 1", name, reg.Counter(name).Value())
		}
	}
	// The seeded prefix table made it into the committed store.
	if _, origins, ok := st.LookupIP(netmodel.MustParseIP("198.18.0.9")); !ok || origins[0] != 64512 {
		t.Fatalf("seeded prefix lookup = %v, %t", origins, ok)
	}

	// Second wave fills the next slot and keeps the first.
	res2, err := r.RunWave(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res2.Generation != 2 || res2.Snapshot != 1 {
		t.Fatalf("second wave = generation %d snapshot %s", res2.Generation, res2.Snapshot)
	}
	st2, err := log.Load(2)
	if err != nil {
		t.Fatal(err)
	}
	if got := st2.Snapshots(); len(got) != 2 {
		t.Fatalf("second generation holds %d snapshots", len(got))
	}
	if reg.Counter("waves.committed").Value() != 2 {
		t.Fatalf("waves.committed = %d", reg.Counter("waves.committed").Value())
	}
	if reg.Gauge("waves.generation").Value() != 2 {
		t.Fatalf("waves.generation = %d", reg.Gauge("waves.generation").Value())
	}
}

func TestWaveRunnerResumesFromLog(t *testing.T) {
	farm, targets := testFarm(t)
	dir := t.TempDir()
	log, _, err := footstore.OpenGenLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(log, targets, testConfig(farm))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.RunWave(context.Background()); err != nil {
		t.Fatal(err)
	}
	r.Close()

	// A fresh runner (daemon restart) continues the timeline.
	log2, _, err := footstore.OpenGenLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := NewRunner(log2, targets, testConfig(farm))
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if r2.NextSnapshot() != 1 {
		t.Fatalf("restarted runner NextSnapshot = %s, want 1", r2.NextSnapshot())
	}
	res, err := r2.RunWave(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Generation != 2 || res.Snapshot != 1 {
		t.Fatalf("post-restart wave = generation %d snapshot %s", res.Generation, res.Snapshot)
	}
	// The restarted store still carries wave 1's history.
	st, err := log2.Load(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Footprint(hg.Google, 0); !ok {
		t.Fatal("restart lost the first wave's snapshot")
	}
}

func TestWaveReducedCoverage(t *testing.T) {
	farm, targets := testFarm(t)
	// Outnumber the live servers with dead targets: coverage below 0.5
	// → the wave commits, degraded.
	live := len(targets)
	for i := 0; i <= live; i++ {
		targets = append(targets, Target{Addr: deadAddr(t), AS: astopo.ASN(64600 + i)})
	}
	log, _, err := footstore.OpenGenLog(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry("waves-reduced")
	cfg := testConfig(farm)
	cfg.Metrics = reg
	cfg.Probe.Timeout = 500 * time.Millisecond

	r, err := NewRunner(log, targets, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	res, err := r.RunWave(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != VerdictReduced {
		t.Fatalf("verdict = %q, want %q (%+v)", res.Verdict, VerdictReduced, res)
	}
	if res.Failed != live+1 || res.Concluded != live {
		t.Fatalf("failed %d concluded %d", res.Failed, res.Concluded)
	}
	if log.Last() != 1 {
		t.Fatal("reduced-coverage wave did not commit")
	}
	if reg.Counter("waves.reduced").Value() != 1 {
		t.Fatalf("waves.reduced = %d", reg.Counter("waves.reduced").Value())
	}
}

func TestWaveFailsWhenNothingConcludes(t *testing.T) {
	farm, _ := testFarm(t)
	targets := []Target{
		{Addr: deadAddr(t), AS: 64600},
		{Addr: deadAddr(t), AS: 64601},
	}
	log, _, err := footstore.OpenGenLog(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(farm)
	cfg.Probe.Timeout = 300 * time.Millisecond

	r, err := NewRunner(log, targets, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.RunWave(context.Background()); !errors.Is(err, ErrWaveFailed) {
		t.Fatalf("RunWave = %v, want ErrWaveFailed", err)
	}
	if log.Len() != 0 {
		t.Fatal("failed wave committed a generation")
	}
}

// TestWaveDeadlineCutsSweepShort: one target accepts TCP and never
// answers the handshake, so the sweep is still running when the wave
// deadline lands. The farm's servers answered, but a partial sweep
// concludes nothing: the wave fails long before the probe timeout and
// commits nothing.
func TestWaveDeadlineCutsSweepShort(t *testing.T) {
	farm, targets := testFarm(t)
	targets = append(targets, Target{Addr: silentAddr(t), AS: 64600})
	log, _, err := footstore.OpenGenLog(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry("waves-deadline")
	cfg := testConfig(farm)
	cfg.Metrics = reg
	cfg.WaveTimeout = 300 * time.Millisecond
	cfg.Probe.Timeout = 10 * time.Second

	r, err := NewRunner(log, targets, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	start := time.Now()
	if _, err := r.RunWave(context.Background()); !errors.Is(err, ErrWaveFailed) {
		t.Fatalf("RunWave = %v, want ErrWaveFailed", err)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("RunWave took %s: the wave deadline did not cut the sweep short", took)
	}
	if log.Len() != 0 {
		t.Fatal("a wave cut short committed a generation")
	}
	if got := reg.Counter("waves.targets_probed").Value(); got != 0 {
		t.Fatalf("waves.targets_probed = %d, want 0: a partial sweep concludes nothing", got)
	}
}

// silentAddr returns an address that accepts TCP connections and never
// answers on them: the kernel completes each connection into the
// listener's backlog, and nothing ever calls Accept.
func silentAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	return ln.Addr().String()
}

// TestWaveShutdownCommitsNothing: a wave the daemon's shutdown cancels
// returns the cancellation and commits nothing.
func TestWaveShutdownCommitsNothing(t *testing.T) {
	farm, targets := testFarm(t)
	log, _, err := footstore.OpenGenLog(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(log, targets, testConfig(farm))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // daemon shutdown before the wave starts
	if _, err := r.RunWave(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunWave under shutdown = %v", err)
	}
	if log.Len() != 0 {
		t.Fatal("cancelled wave committed")
	}
}

func TestWaveGridExhausted(t *testing.T) {
	farm, targets := testFarm(t)
	dir := t.TempDir()
	log, _, err := footstore.OpenGenLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Commit a generation whose newest snapshot is the last grid slot.
	b := footstore.NewBuilder()
	last := timeline.Snapshot(timeline.Count() - 1)
	if err := b.AddSnapshot(last, map[hg.ID][]astopo.ASN{hg.Google: {64512}}); err != nil {
		t.Fatal(err)
	}
	st, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := log.Append(st); err != nil {
		t.Fatal(err)
	}

	r, err := NewRunner(log, targets, testConfig(farm))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.RunWave(context.Background()); !errors.Is(err, ErrGridExhausted) {
		t.Fatalf("RunWave on a full grid = %v", err)
	}
}
