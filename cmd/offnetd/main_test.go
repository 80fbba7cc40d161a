package main

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"os"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"offnetscope/internal/astopo"
	"offnetscope/internal/footstore"
	"offnetscope/internal/hg"
	"offnetscope/internal/netmodel"
	"offnetscope/internal/timeline"
)

// The server engine (handlers, cache, batch, shedding) is tested in
// internal/offnetserve; this file covers the daemon envelope: flag
// parsing, the listen/serve/shutdown lifecycle, and the SIGHUP reload
// path end to end over a real socket.

// testStore hand-builds a tiny store: Google in AS100 (2020-10 on) and
// AS200 (all three snapshots), Netflix in AS200 at the last snapshot,
// one /16 and a more-specific /24.
func testStore(t testing.TB) *footstore.Store {
	t.Helper()
	s1, _ := timeline.FromLabel("2020-10")
	s2, _ := timeline.FromLabel("2021-01")
	s3, _ := timeline.FromLabel("2021-04")
	b := footstore.NewBuilder()
	for _, step := range []struct {
		s  timeline.Snapshot
		fp map[hg.ID][]astopo.ASN
	}{
		{s1, map[hg.ID][]astopo.ASN{hg.Google: {100, 200}}},
		{s2, map[hg.ID][]astopo.ASN{hg.Google: {200}}},
		{s3, map[hg.ID][]astopo.ASN{hg.Google: {100, 200}, hg.Netflix: {200}}},
	} {
		if err := b.AddSnapshot(step.s, step.fp); err != nil {
			t.Fatal(err)
		}
	}
	b.AddPrefix(netmodel.MustParsePrefix("10.1.0.0/16"), []astopo.ASN{100})
	b.AddPrefix(netmodel.MustParsePrefix("10.1.2.0/24"), []astopo.ASN{200})
	st, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// altStore differs from testStore (two snapshots, bigger Google
// footprint at the latest one), so a served response reveals which
// version answered it.
func altStore(t testing.TB) *footstore.Store {
	t.Helper()
	s2, _ := timeline.FromLabel("2021-01")
	s3, _ := timeline.FromLabel("2021-04")
	b := footstore.NewBuilder()
	for _, step := range []struct {
		s  timeline.Snapshot
		fp map[hg.ID][]astopo.ASN
	}{
		{s2, map[hg.ID][]astopo.ASN{hg.Google: {200}}},
		{s3, map[hg.ID][]astopo.ASN{hg.Google: {100, 200, 300}, hg.Netflix: {200}}},
	} {
		if err := b.AddSnapshot(step.s, step.fp); err != nil {
			t.Fatal(err)
		}
	}
	b.AddPrefix(netmodel.MustParsePrefix("10.1.0.0/16"), []astopo.ASN{100})
	b.AddPrefix(netmodel.MustParsePrefix("10.1.2.0/24"), []astopo.ASN{200})
	st, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestRunLifecycle exercises the daemon entrypoint: load a store file,
// bind an ephemeral port, shut down cleanly on context cancellation.
func TestRunLifecycle(t *testing.T) {
	path := t.TempDir() + "/store.fst"
	if err := testStore(t).Save(path); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(200 * time.Millisecond)
		cancel()
	}()
	var out strings.Builder
	if err := run(ctx, []string{"-store", path, "-addr", "127.0.0.1:0"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, want := range []string{"loaded", "serving on", "shutting down"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}

	if err := run(context.Background(), nil, &out); err == nil {
		t.Error("missing -store should fail")
	}
	if err := run(context.Background(), []string{"-store", path + ".missing"}, &out); err == nil {
		t.Error("missing store file should fail")
	}
}

// TestParseFlagsRejectsReplacedValues: a value the engine would read
// as its default or as 0 is a usage error, so the daemon never serves
// with settings other than the ones its banner prints. The documented
// meanings stay: -cache 0 and -timeout 0 disable, and a negative
// -breaker-failures disables the breaker.
func TestParseFlagsRejectsReplacedValues(t *testing.T) {
	for _, bad := range [][]string{
		{"-workers", "0"},
		{"-workers", "-3"},
		{"-max-batch", "0"},
		{"-queue-wait", "0"},
		{"-queue-wait", "-1s"},
		{"-cache", "-1"},
		{"-timeout", "-1s"},
		{"-breaker-failures", "0"},
		{"-breaker-open-for", "0"},
		{"-watch-interval", "0"},
		{"-read-header-timeout", "0"},
		{"-read-header-timeout", "-1s"},
		{"-read-timeout", "0"},
		{"-read-timeout", "-1s"},
		{"-write-timeout", "0"},
		{"-write-timeout", "-1s"},
		{"-idle-timeout", "0"},
		{"-idle-timeout", "-1s"},
	} {
		if _, err := parseFlags(append([]string{"-store", "x.fst"}, bad...)); err == nil {
			t.Errorf("parseFlags(%v) accepted", bad)
		}
	}
	for _, ok := range [][]string{
		{"-cache", "0"},
		{"-timeout", "0"},
		{"-breaker-failures", "-1"},
		{"-workers", "1", "-max-batch", "1", "-queue-wait", "1ms", "-breaker-open-for", "1ms", "-watch-interval", "1ms"},
		{"-read-header-timeout", "1ms", "-read-timeout", "1ms", "-write-timeout", "1ms", "-idle-timeout", "1ms"},
	} {
		if _, err := parseFlags(append([]string{"-store", "x.fst"}, ok...)); err != nil {
			t.Errorf("parseFlags(%v): %v", ok, err)
		}
	}
	// The query cache is opt-in: without -cache every query is answered
	// by its handler.
	if cfg, err := parseFlags([]string{"-store", "x.fst"}); err != nil || cfg.cacheSize != 0 {
		t.Errorf("default -cache = %v (err %v), want 0", cfg, err)
	}
}

// TestShutdownClosesSilentConnections pins that a client holding a
// connection open without sending a request does not stall shutdown:
// http.Server.Shutdown alone waits 5 s for such a connection.
func TestShutdownClosesSilentConnections(t *testing.T) {
	path := t.TempDir() + "/store.fst"
	if err := testStore(t).Save(path); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	out := &syncWriter{}
	base, done := startDaemon(t, ctx, out, path)
	silent, err := net.Dial("tcp", strings.TrimPrefix(base, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	// The server accepts connections in order, so once a request on a
	// later connection is answered, the silent one has been accepted.
	resp, err := http.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	start := time.Now()
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not return within 10s of cancellation")
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("shutdown took %v with a silent connection open, want under 2s", took)
	}
}

// syncWriter serializes run()'s output so the test can poll it while
// the daemon goroutine writes.
type syncWriter struct {
	mu sync.Mutex
	b  strings.Builder
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.Write(p)
}

func (w *syncWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.String()
}

func waitFor(t *testing.T, out *syncWriter, want string) {
	t.Helper()
	countWait(t, out, want, 1)
}

// startDaemon launches run() on an ephemeral port with the given extra
// args and returns the base URL once it is serving.
func startDaemon(t *testing.T, ctx context.Context, out *syncWriter, storePath string, extra ...string) (base string, done chan error) {
	t.Helper()
	args := append([]string{"-store", storePath, "-addr", "127.0.0.1:0"}, extra...)
	done = make(chan error, 1)
	go func() { done <- run(ctx, args, out) }()
	waitFor(t, out, "serving on")
	m := regexp.MustCompile(`serving on (http://[^ ]+)`).FindStringSubmatch(out.String())
	if m == nil {
		t.Fatalf("no listen address in output:\n%s", out.String())
	}
	return m[1], done
}

// TestSIGHUPReloadLifecycle drives the real signal path end to end:
// serve, reload twice via SIGHUP (the second swap changes the store
// content), survive a reload of a corrupt file, and keep answering
// queries the whole time.
func TestSIGHUPReloadLifecycle(t *testing.T) {
	path := t.TempDir() + "/store.fst"
	if err := testStore(t).Save(path); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	out := &syncWriter{}
	base, done := startDaemon(t, ctx, out, path)
	get := func(p string, wantCode int) {
		t.Helper()
		resp, err := http.Get(base + p)
		if err != nil {
			t.Fatalf("GET %s: %v", p, err)
		}
		resp.Body.Close()
		if resp.StatusCode != wantCode {
			t.Fatalf("GET %s = %d, want %d", p, resp.StatusCode, wantCode)
		}
	}
	get("/readyz", 200)
	get("/v1/hg/google/footprint", 200)

	hup := func() {
		if err := syscall.Kill(os.Getpid(), syscall.SIGHUP); err != nil {
			t.Fatal(err)
		}
	}

	// Reload 1: same file.
	hup()
	waitFor(t, out, "reloaded")
	get("/v1/hg/google/footprint", 200)

	// Reload 2: new content — the served window must shrink to the
	// alternate store's two snapshots.
	if err := altStore(t).Save(path); err != nil {
		t.Fatal(err)
	}
	hup()
	waitFor(t, out, "2 snapshots")
	get("/v1/hg/google/footprint?snapshot=2020-10", 404) // gone from the new window
	get("/v1/hg/google/footprint?snapshot=2021-04", 200)

	// Reload 3: corrupt file is rejected, old store keeps serving.
	if err := os.WriteFile(path, []byte("definitely not a footstore"), 0o644); err != nil {
		t.Fatal(err)
	}
	hup()
	waitFor(t, out, "reload failed")
	get("/v1/hg/google/footprint?snapshot=2021-04", 200)
	get("/readyz", 200)

	if n := strings.Count(out.String(), "reloaded"); n != 2 {
		t.Errorf("saw %d successful reloads, want 2:\n%s", n, out.String())
	}

	cancel()
	if err := <-done; err != nil {
		t.Fatalf("run: %v", err)
	}
	waitFor(t, out, "shutting down")
}

// TestLoadInitialStore pins the -genlog boot decision: the newest
// committed generation wins, an empty log falls back to the -store
// bootstrap, and an empty log with no bootstrap is a startup error.
func TestLoadInitialStore(t *testing.T) {
	dir := t.TempDir()
	glog, _, err := footstore.OpenGenLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder

	// Empty log, no bootstrap: refuse to start.
	if _, err := loadInitialStore(&daemonConfig{genlogDir: dir}, &out); err == nil {
		t.Error("empty log with no -store accepted")
	}

	// Empty log, -store bootstrap: the file serves.
	path := t.TempDir() + "/boot.fst"
	if err := testStore(t).Save(path); err != nil {
		t.Fatal(err)
	}
	st, err := loadInitialStore(&daemonConfig{genlogDir: dir, storePath: path}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if st.Stats().Snapshots != 3 {
		t.Errorf("bootstrap store snapshots = %d, want 3", st.Stats().Snapshots)
	}

	// Committed generations: the newest one wins over the bootstrap.
	if _, err := glog.Append(testStore(t)); err != nil {
		t.Fatal(err)
	}
	if _, err := glog.Append(altStore(t)); err != nil {
		t.Fatal(err)
	}
	st, err = loadInitialStore(&daemonConfig{genlogDir: dir, storePath: path}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if st.Stats().Snapshots != 2 {
		t.Errorf("genlog boot store snapshots = %d, want 2 (altStore from generation 2)", st.Stats().Snapshots)
	}
}

// TestGenlogModeServesLiveTimeline is the daemon pair end to end from
// the serving side: offnetd -genlog boots from the newest committed
// generation, picks up a new commit without any signal, and treats
// SIGHUP as a no-op (the watcher owns reloads).
func TestGenlogModeServesLiveTimeline(t *testing.T) {
	dir := t.TempDir()
	glog, _, err := footstore.OpenGenLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := glog.Append(testStore(t)); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	out := &syncWriter{}
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-genlog", dir, "-addr", "127.0.0.1:0", "-watch-interval", "10ms"}, out)
	}()
	waitFor(t, out, "serving on")
	m := regexp.MustCompile(`serving on (http://[^ ]+)`).FindStringSubmatch(out.String())
	if m == nil {
		t.Fatalf("no listen address in output:\n%s", out.String())
	}
	base := m[1]

	googleCount := func() float64 {
		t.Helper()
		resp, err := http.Get(base + "/v1/hg/google/footprint")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body struct {
			Count float64 `json:"count"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		return body.Count
	}
	if got := googleCount(); got != 2 {
		t.Fatalf("initial footprint count = %v, want 2 (testStore)", got)
	}

	// A new committed generation is served with no signal involved.
	if _, err := glog.Append(altStore(t)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, out, "reloaded generation 2")
	if got := googleCount(); got != 3 {
		t.Fatalf("footprint count after commit = %v, want 3 (altStore)", got)
	}

	// SIGHUP must not race the watcher: it is a logged no-op here.
	if err := syscall.Kill(os.Getpid(), syscall.SIGHUP); err != nil {
		t.Fatal(err)
	}
	waitFor(t, out, "SIGHUP ignored")

	cancel()
	if err := <-done; err != nil {
		t.Fatalf("daemon exit: %v", err)
	}
}
