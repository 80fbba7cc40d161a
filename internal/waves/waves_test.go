package waves

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"offnetscope/internal/astopo"
	"offnetscope/internal/footstore"
	"offnetscope/internal/hg"
	"offnetscope/internal/netmodel"
	"offnetscope/internal/obs"
	"offnetscope/internal/probe"
	"offnetscope/internal/runstate"
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
	cfg.CheckpointDir = t.TempDir()

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
	// The checkpoint was cleared so a retry re-probes from scratch.
	if raw := runstate.LoadBlob(cfg.CheckpointDir, r.ckName(0)); raw != nil {
		t.Fatalf("failed wave left checkpoint %q", raw)
	}
}

func TestWaveResumesMidWaveFromCheckpoint(t *testing.T) {
	farm, targets := testFarm(t)
	log, _, err := footstore.OpenGenLog(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(farm)
	cfg.CheckpointDir = t.TempDir()
	r, err := NewRunner(log, targets, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	// Plant the checkpoint a killed predecessor would have left, with
	// a Google off-net's chain and headers under the background target.
	// If the wave runs the engine over the checkpoint instead of
	// re-probing, the background AS shows up in the Google footprint.
	bg := targets[asBackground-64512]
	scanner := probe.New(probe.Config{})
	defer scanner.Close()
	planted := Sweep(context.Background(), scanner, []string{targets[0].Addr})[0]
	planted.Addr = bg.Addr
	ck := ckFile{Snapshot: 0, TargetsHash: r.targetsHash, Observations: []Observation{planted}}
	raw, err := json.Marshal(ck)
	if err != nil {
		t.Fatal(err)
	}
	if err := runstate.SaveBlob(cfg.CheckpointDir, r.ckName(0), raw); err != nil {
		t.Fatal(err)
	}

	res, err := r.RunWave(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Resumed != 1 {
		t.Fatalf("resumed = %d, want 1", res.Resumed)
	}
	st, err := log.Load(res.Generation)
	if err != nil {
		t.Fatal(err)
	}
	g, _ := st.Footprint(hg.Google, 0)
	found := false
	for _, as := range g {
		if as == bg.AS {
			found = true
		}
	}
	if !found {
		t.Fatalf("checkpointed outcome ignored; Google footprint = %v", g)
	}
	// Commit cleared the wave's checkpoint: the planted blob and the
	// one batch probed after it.
	for n := range 2 {
		if raw := runstate.LoadBlob(cfg.CheckpointDir, fmt.Sprintf("wave-%s-%d", res.Snapshot.Label(), n)); raw != nil {
			t.Fatalf("checkpoint blob %d survived the commit", n)
		}
	}

	// A checkpoint pinned to different targets must be ignored.
	ck.TargetsHash++
	ck.Snapshot = int(r.NextSnapshot())
	raw, _ = json.Marshal(ck)
	if err := runstate.SaveBlob(cfg.CheckpointDir, r.ckName(0), raw); err != nil {
		t.Fatal(err)
	}
	res2, err := r.RunWave(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res2.Resumed != 0 {
		t.Fatalf("mismatched checkpoint resumed %d outcomes", res2.Resumed)
	}
}

func TestWaveShutdownKeepsCheckpoint(t *testing.T) {
	farm, targets := testFarm(t)
	log, _, err := footstore.OpenGenLog(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(farm)
	cfg.CheckpointDir = t.TempDir()
	r, err := NewRunner(log, targets, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	ck := ckFile{Snapshot: 0, TargetsHash: r.targetsHash, Observations: []Observation{{Addr: targets[0].Addr}}}
	raw, _ := json.Marshal(ck)
	if err := runstate.SaveBlob(cfg.CheckpointDir, r.ckName(0), raw); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // daemon shutdown before the wave starts
	if _, err := r.RunWave(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunWave under shutdown = %v", err)
	}
	if log.Len() != 0 {
		t.Fatal("cancelled wave committed")
	}
	if raw := runstate.LoadBlob(cfg.CheckpointDir, r.ckName(0)); raw == nil {
		t.Fatal("shutdown discarded the mid-wave checkpoint")
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

// relay is a stable loopback address in front of a swappable backend,
// so a target list outlives the farm process behind it, as a real
// target list outlives a restarted daemon.
type relay struct {
	ln      net.Listener
	backend atomic.Value // string
}

// newRelay starts a relay to backend; onAccept runs on every accepted
// connection.
func newRelay(t *testing.T, backend string, onAccept func()) *relay {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	r := &relay{ln: ln}
	r.backend.Store(backend)
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			onAccept()
			go func() {
				defer c.Close()
				up, err := net.Dial("tcp", r.backend.Load().(string))
				if err != nil {
					return
				}
				defer up.Close()
				done := make(chan struct{}, 2)
				go func() { io.Copy(up, c); done <- struct{}{} }() //nolint:errcheck
				go func() { io.Copy(c, up); done <- struct{}{} }() //nolint:errcheck
				<-done
			}()
		}
	}()
	return r
}

// TestWaveResumesAcrossFarmProcesses kills a wave after its first
// checkpointed batch, replaces the farm with a fresh process (new
// leaves, a CA re-derived from the same seed), and resumes. The first
// process runs two hours earlier on the wave clock, longer than the
// leaves are backdated, so the resumed wave only confirms the second
// farm's leaves if it validates at its own moment of inference, not at
// anything the first process recorded. It re-validates the first farm's
// checkpointed chains under the second farm's trust store, and must
// commit the same generation bytes as a wave never interrupted.
func TestWaveResumesAcrossFarmProcesses(t *testing.T) {
	clock = func() time.Time { return time.Now().Add(-2 * time.Hour) }
	defer func() { clock = time.Now }()
	farmA, err := servefarm.StartDemo()
	if err != nil {
		t.Fatal(err)
	}
	// Shut the daemon down as the second batch starts probing: the
	// first batch is checkpointed, the second is dropped.
	const batch = 4
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	demoTargets, _ := FarmTargets(farmA)
	relays := make([]*relay, len(demoTargets))
	targets := make([]Target, len(demoTargets))
	for i, tg := range demoTargets {
		onAccept := func() {}
		if i == batch {
			onAccept = func() { once.Do(cancel) }
		}
		relays[i] = newRelay(t, tg.Addr, onAccept)
		targets[i] = Target{Addr: relays[i].ln.Addr().String(), AS: tg.AS}
	}

	dir, ckDir := t.TempDir(), t.TempDir()
	cfg := testConfig(farmA)
	cfg.CheckpointDir, cfg.BatchSize = ckDir, batch
	glog, _, err := footstore.OpenGenLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(glog, targets, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.RunWave(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted wave = %v, want context.Canceled", err)
	}
	r.Close()
	farmA.Close()
	if raw := runstate.LoadBlob(ckDir, r.ckName(1)); raw != nil {
		t.Fatal("the dropped second batch was checkpointed")
	}

	clock = time.Now
	farmB, err := servefarm.StartDemo()
	if err != nil {
		t.Fatal(err)
	}
	defer farmB.Close()
	for i, s := range farmB.Servers {
		relays[i].backend.Store(s.TLSAddr)
	}
	cfg = testConfig(farmB)
	cfg.CheckpointDir, cfg.BatchSize = ckDir, batch
	if glog, _, err = footstore.OpenGenLog(dir); err != nil {
		t.Fatal(err)
	}
	r, err = NewRunner(glog, targets, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	res, err := r.RunWave(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Resumed != batch || res.Confirmed != 4 {
		t.Fatalf("resumed wave: resumed %d confirmed %d, want %d and 4", res.Resumed, res.Confirmed, batch)
	}

	// The baseline: the same targets, never interrupted.
	cleanDir := t.TempDir()
	clean, _, err := footstore.OpenGenLog(cleanDir)
	if err != nil {
		t.Fatal(err)
	}
	cfg.CheckpointDir = ""
	rc, err := NewRunner(clean, targets, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if _, err := rc.RunWave(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"gen-00000001.seg", "MANIFEST.glm"} {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join(cleanDir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs between the resumed and the uninterrupted wave", name)
		}
	}
}
