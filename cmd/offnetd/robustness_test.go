package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"offnetscope/internal/chaos"
	"offnetscope/internal/loadgen"
	"offnetscope/internal/obs"
)

// TestServerTimeoutFlagWiring pins every http.Server timeout to its
// flag: the daemon once shipped with no ReadTimeout/WriteTimeout and a
// hardcoded ReadHeaderTimeout, leaving it open to slowloris-style
// connection exhaustion. All four must come from flags and default
// non-zero.
func TestServerTimeoutFlagWiring(t *testing.T) {
	cfg, err := parseFlags([]string{
		"-store", "x.fst",
		"-read-header-timeout", "7s",
		"-read-timeout", "11s",
		"-write-timeout", "13s",
		"-idle-timeout", "17s",
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := newHTTPServer(cfg, http.NotFoundHandler())
	if got := srv.ReadHeaderTimeout; got != 7*time.Second {
		t.Errorf("ReadHeaderTimeout = %v, want 7s", got)
	}
	if got := srv.ReadTimeout; got != 11*time.Second {
		t.Errorf("ReadTimeout = %v, want 11s", got)
	}
	if got := srv.WriteTimeout; got != 13*time.Second {
		t.Errorf("WriteTimeout = %v, want 13s", got)
	}
	if got := srv.IdleTimeout; got != 17*time.Second {
		t.Errorf("IdleTimeout = %v, want 17s", got)
	}

	// Defaults must not regress to zero (zero = unbounded = slowloris).
	def, err := parseFlags([]string{"-store", "x.fst"})
	if err != nil {
		t.Fatal(err)
	}
	dsrv := newHTTPServer(def, http.NotFoundHandler())
	for name, d := range map[string]time.Duration{
		"ReadHeaderTimeout": dsrv.ReadHeaderTimeout,
		"ReadTimeout":       dsrv.ReadTimeout,
		"WriteTimeout":      dsrv.WriteTimeout,
		"IdleTimeout":       dsrv.IdleTimeout,
	} {
		if d <= 0 {
			t.Errorf("default %s is %v, want > 0", name, d)
		}
	}
}

// countWait blocks until substr appears at least n times in the
// daemon's output.
func countWait(t *testing.T, out *syncWriter, substr string, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if strings.Count(out.String(), substr) >= n {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %q #%d:\n%s", substr, n, out.String())
}

// fetchMetrics pulls the daemon's metrics snapshot from /debug/metrics.
func fetchMetrics(t *testing.T, base string) obs.Snapshot {
	t.Helper()
	resp, err := http.Get(base + "/debug/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestSIGHUPAlternatingCorruptReloads is the crash-only serving e2e.
// Seeded loadgen traffic reaches the real run() through the chaos
// layer — a fault-injecting client transport (resets, torn bodies,
// marked 502s) and a TCP proxy (latency spikes) — while 40 SIGHUPs
// alternate good store files with corrupt ones. The good reloads load
// altStore and testStore in turn, so testStore answers on odd
// generations and altStore on even ones, and a Google 2021-04
// footprint reveals which store answered. The test checks that
//
//   - every response comes from a committed generation, and every
//     footprint matches its generation's store, cached or not;
//   - no 200 body is torn and no 5xx is unmarked: every injected 502
//     arrives marked, torn bodies land in the eof bucket, resets in the
//     reset bucket, and no other transport error occurs;
//   - /readyz degrades after each corrupt candidate and clears after
//     each good one, reload.accepted/rejected count exactly, and
//     reload.validate_ns times every candidate;
//   - the plan runs to completion with every request accounted for,
//     p99 stays within 2 s, and run() never exits mid-test;
//   - a final good reload clears the degradation, a repeated query is
//     then a cache hit on the final generation, and once run() returns
//     the goroutine count is back within 16 of where it started.
//
// The traffic and the transport's fault totals are a pure function of
// the seeds; the proxy's latency spikes are keyed per connection, so
// their count follows how many connections the client opens. Runs
// under -race via `make chaos-race`; `make soak` repeats it.
func TestSIGHUPAlternatingCorruptReloads(t *testing.T) {
	const (
		reloads        = 40 // a leak of one goroutine per reload outgrows the slack
		goroutineSlack = 16
		p99Budget      = 2 * time.Second
		concurrency    = 8
	)
	goroutinesBefore := runtime.NumGoroutine()

	// Generation g serves good[g%2], whose Google 2021-04 footprint
	// holds googleCount[g%2] ASes.
	good := [2][]byte{altStore(t).Encode(), testStore(t).Encode()}
	googleCount := [2]int{3, 2}
	corrupt := [][]byte{
		good[0][:len(good[0])/2],               // truncated: the CRC is gone
		append([]byte("XXXX"), good[0][4:]...), // clobbered magic
		[]byte("definitely not a footstore"),
	}
	path := t.TempDir() + "/store.fst"
	if err := os.WriteFile(path, good[1], 0o644); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	out := &syncWriter{}
	base, done := startDaemon(t, ctx, out, path)

	proxy, err := chaos.NewProxy(strings.TrimPrefix(base, "http://"), chaos.HTTPConfig{Seed: 10, LatencyProb: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	// A pool sized to the driver, so keep-alive connections through the
	// proxy are reused rather than churned.
	tr := chaos.NewTransport(&http.Transport{MaxIdleConnsPerHost: concurrency}, chaos.HTTPConfig{
		Seed: 11, ResetProb: 0.02, TruncateProb: 0.02, Inject5xxProb: 0.02,
	})
	client := &http.Client{Transport: tr, Timeout: 30 * time.Second}
	defer client.CloseIdleConnections()

	plan, err := loadgen.BuildPlan(testStore(t), loadgen.PlanConfig{
		Seed: 9, Requests: 3000, Rate: 1500,
		Mix: loadgen.Mix{IPHot: 0.5, IPCold: 0.1, AS: 0.1, Footprint: 0.25, Malformed: 0.05},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Every completed response is audited. A torn body must surface as
	// a transport error, never as a completed 200.
	var (
		mu                       sync.Mutex
		torn, injected, unmarked int
		checked                  int
		mismatches               []string
	)
	onResponse := func(req *loadgen.Request, status int, header http.Header, body []byte) {
		mu.Lock()
		defer mu.Unlock()
		switch {
		case status >= 500 && header.Get(chaos.FaultHeader) == "injected-5xx":
			injected++
		case status >= 500:
			unmarked++
		case status != http.StatusOK: // malformed requests, and snapshots a store lacks
		case !json.Valid(body):
			torn++
		case strings.HasPrefix(req.Path, "/v1/hg/Google/footprint") &&
			(!strings.Contains(req.Path, "snapshot=") || strings.HasSuffix(req.Path, "snapshot=2021-04")):
			var m struct {
				Generation uint64 `json:"generation"`
				Count      int    `json:"count"`
			}
			// The body is valid JSON: a field of the wrong type leaves
			// Count 0, which the comparison below reports.
			_ = json.Unmarshal(body, &m)
			checked++
			if want := googleCount[m.Generation%2]; m.Count != want {
				mismatches = append(mismatches, fmt.Sprintf("generation %d served count %d, want %d", m.Generation, m.Count, want))
			}
		}
	}
	var rep *loadgen.Report
	var driveErr error
	driven := make(chan struct{})
	go func() {
		defer close(driven)
		rep, driveErr = loadgen.Drive(ctx, plan, client, loadgen.Options{
			Concurrency: concurrency,
			BaseURL:     "http://" + proxy.Addr(),
			OnResponse:  onResponse,
		})
	}()

	// /readyz and /debug/metrics go to the daemon directly, past the
	// chaos layer.
	readyz := func() map[string]any {
		t.Helper()
		resp, err := http.Get(base + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		m := map[string]any{}
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatalf("readyz: %v", err)
		}
		return m
	}
	// A /readyz answer also means run() is serving, so its SIGHUP
	// handler is installed.
	if rz := readyz(); rz["generation"] != 1.0 || rz["degraded"] != nil {
		t.Fatalf("initial readyz = %v, want generation 1, not degraded", rz)
	}
	hup := func(data []byte) {
		t.Helper()
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := syscall.Kill(os.Getpid(), syscall.SIGHUP); err != nil {
			t.Fatal(err)
		}
	}
	accepted, rejected := 0, 0
	reloadGood := func() {
		t.Helper()
		accepted++
		hup(good[(accepted+1)%2])
		countWait(t, out, "reloaded", accepted)
		if d, ok := readyz()["degraded"]; ok {
			t.Errorf("after good reload %d: readyz still degraded: %v", accepted, d)
		}
	}
	for i := 0; i < reloads; i++ {
		if i%2 == 0 {
			reloadGood()
		} else {
			hup(corrupt[rejected%len(corrupt)])
			rejected++
			countWait(t, out, "reload failed", rejected)
			if got := readyz()["degraded"]; got != "reload-rejected" {
				t.Errorf("after corrupt reload %d: degraded = %v, want reload-rejected", rejected, got)
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	<-driven
	if driveErr != nil {
		t.Fatalf("driver: %v", driveErr)
	}

	answered := 0
	for _, n := range rep.ByStatus {
		answered += n
	}
	if answered+rep.Transport != len(plan.Requests) {
		t.Errorf("%d statuses + %d transport errors account for %d planned requests",
			answered, rep.Transport, len(plan.Requests))
	}
	faults := tr.Counts()
	if faults.Resets == 0 || faults.TruncatedBodies == 0 || faults.Injected5xx == 0 {
		t.Fatalf("chaos injected nothing at these rates: %+v", faults)
	}
	if injected != int(faults.Injected5xx) {
		t.Errorf("%d marked 502s arrived, %d injected", injected, faults.Injected5xx)
	}
	if got := rep.TransportByClass["eof"]; got != int(faults.TruncatedBodies) {
		t.Errorf("eof bucket = %d, %d bodies torn", got, faults.TruncatedBodies)
	}
	if got := rep.TransportByClass["reset"]; got != int(faults.Resets) {
		t.Errorf("reset bucket = %d, %d resets injected", got, faults.Resets)
	}
	if want := int(faults.Resets + faults.TruncatedBodies); rep.Transport != want {
		t.Errorf("%d transport errors, %d injected: %v", rep.Transport, want, rep.TransportByClass)
	}
	if torn > 0 || unmarked > 0 {
		t.Errorf("%d torn 200s, %d unmarked 5xx", torn, unmarked)
	}
	for _, m := range mismatches {
		t.Error("stale answer across a reload: " + m)
	}
	if checked == 0 {
		t.Error("no Google 2021-04 footprint answered: the content check never ran")
	}
	// Committed generations are 1 (startup) through 1+accepted.
	stale := 0
	for gen, n := range rep.Generations {
		if g, err := strconv.ParseUint(gen, 10, 64); err != nil || g < 1 || g > uint64(1+accepted) {
			stale += n
		}
	}
	if stale > 0 {
		t.Errorf("%d responses from uncommitted generations: %v", stale, rep.Generations)
	}
	if p99 := time.Duration(rep.P99Ns); p99 > p99Budget {
		t.Errorf("p99 = %v, budget %v", p99, p99Budget)
	}
	metrics := fetchMetrics(t, base)
	if metrics.Counter("reload.accepted") != int64(accepted) || metrics.Counter("reload.rejected") != int64(rejected) {
		t.Errorf("reload.accepted/rejected = %d/%d, want %d/%d",
			metrics.Counter("reload.accepted"), metrics.Counter("reload.rejected"), accepted, rejected)
	}
	validate := metrics.Histograms["reload.validate_ns"]
	validateP50, validateP99 := time.Duration(validate.Quantile(0.5)), time.Duration(validate.Quantile(0.99))
	if validate.Count != uint64(reloads) || validateP50 <= 0 || validateP99 < validateP50 {
		t.Errorf("reload.validate_ns: %d candidates timed, p50 %v, p99 %v; want %d, 0 < p50 <= p99",
			validate.Count, validateP50, validateP99, reloads)
	}
	select {
	case err := <-done:
		t.Fatalf("daemon exited mid-test: %v", err)
	default:
	}

	// A final good reload clears the degradation the last corrupt one
	// left, and a repeated query is then a cache hit on its generation.
	reloadGood()
	final := uint64(1 + accepted)
	if gen := readyz()["generation"]; gen != float64(final) {
		t.Errorf("final generation = %v, want %d", gen, final)
	}
	var last struct {
		Generation uint64 `json:"generation"`
		Count      int    `json:"count"`
	}
	var cacheHdr string
	for i := 0; i < 2; i++ {
		resp, err := http.Get(base + "/v1/hg/google/footprint?snapshot=2021-04")
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&last)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		cacheHdr = resp.Header.Get("X-Offnet-Cache")
	}
	if last.Generation != final || last.Count != googleCount[final%2] {
		t.Errorf("quiesced answer: generation %d count %d, want generation %d count %d",
			last.Generation, last.Count, final, googleCount[final%2])
	}
	if cacheHdr != "hit" {
		t.Errorf("repeated query after quiescing = %q, want a cache hit", cacheHdr)
	}

	// run() shuts down with the client's pool and the proxy still open.
	cancel()
	stopped := time.Now()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not return within 10s of cancellation")
	}
	shutdown := time.Since(stopped)
	if shutdown > 2*time.Second {
		t.Errorf("run took %v to return after cancellation, want under 2s", shutdown)
	}
	proxy.Close()
	client.CloseIdleConnections()
	goroutinesAfter := runtime.NumGoroutine()
	for end := time.Now().Add(3 * time.Second); goroutinesAfter > goroutinesBefore+goroutineSlack && time.Now().Before(end); {
		time.Sleep(20 * time.Millisecond)
		goroutinesAfter = runtime.NumGoroutine()
	}
	if goroutinesAfter > goroutinesBefore+goroutineSlack {
		t.Errorf("goroutines %d before, %d after run() returned: more than %d leaked",
			goroutinesBefore, goroutinesAfter, goroutineSlack)
	}

	t.Logf("faults: %d resets, %d torn bodies, %d injected 502s, %d proxy latency spikes; buckets %v; "+
		"statuses %v; %d generations answered; verdicts: %d torn 200s, %d unmarked 5xx, %d stale, "+
		"%d of %d footprints mismatched, reloads %d accepted / %d rejected (validate p50 %v, p99 %v), "+
		"p99 %v, goroutines %d→%d, run() returned %v after cancel",
		faults.Resets, faults.TruncatedBodies, faults.Injected5xx, proxy.Counts().LatencySpikes,
		rep.TransportByClass, rep.ByStatus, len(rep.Generations), torn, unmarked, stale,
		len(mismatches), checked, accepted, rejected, validateP50, validateP99,
		time.Duration(rep.P99Ns), goroutinesBefore, goroutinesAfter, shutdown)
}
