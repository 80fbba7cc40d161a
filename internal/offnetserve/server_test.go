package offnetserve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"offnetscope/internal/astopo"
	"offnetscope/internal/core"
	"offnetscope/internal/footstore"
	"offnetscope/internal/hg"
	"offnetscope/internal/netmodel"
	"offnetscope/internal/obs"
	"offnetscope/internal/scanners"
	"offnetscope/internal/timeline"
	"offnetscope/internal/worldsim"
)

// testStore hand-builds a tiny store: Google in AS100 (2020-10 on) and
// AS200 (all three snapshots), Netflix in AS200 at the last snapshot,
// one /16, a more-specific /24, and a /24 that both ASes originate.
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
	b.AddPrefix(netmodel.MustParsePrefix("10.1.3.0/24"), []astopo.ASN{200, 100})
	st, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// altStore builds a store that differs from testStore: a shorter
// window (two snapshots) and a bigger Google footprint at the latest
// one, so a served response reveals which version answered it.
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

func getJSON(t *testing.T, handler http.Handler, url string, wantCode int) map[string]any {
	t.Helper()
	req := httptest.NewRequest("GET", url, nil)
	rec := httptest.NewRecorder()
	handler.ServeHTTP(rec, req)
	if rec.Code != wantCode {
		t.Fatalf("GET %s = %d, want %d: %s", url, rec.Code, wantCode, rec.Body.String())
	}
	var out map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("GET %s: bad JSON: %v", url, err)
	}
	return out
}

func hostingHGs(v map[string]any) []string {
	var out []string
	hostings, _ := v["hostings"].([]any)
	for _, h := range hostings {
		m := h.(map[string]any)
		out = append(out, m["hg"].(string))
	}
	return out
}

func TestEndpoints(t *testing.T) {
	h := New(testStore(t), Config{Workers: 8})

	snaps := getJSON(t, h, "/v1/snapshots", 200)
	if snaps["latest"] != "2021-04" {
		t.Errorf("latest = %v", snaps["latest"])
	}
	if got := snaps["snapshots"].([]any); len(got) != 3 || got[0] != "2020-10" {
		t.Errorf("snapshots = %v", got)
	}

	// IP inside the /24: AS200, hosted by Google and Netflix.
	ip := getJSON(t, h, "/v1/ip/10.1.2.3", 200)
	if ip["mapped"] != true || ip["prefix"] != "10.1.2.0/24" {
		t.Errorf("ip response = %v", ip)
	}
	// Google's AS200 run spans all three snapshots, Netflix's one.
	if got := hostingHGs(ip); len(got) != 2 || got[0] != "Google" || got[1] != "Netflix" {
		t.Errorf("hostings = %v", got)
	}
	// IP inside the /16 but outside the /24: AS100, Google only, and
	// its run is split (2020-10, then 2021-04).
	ip = getJSON(t, h, "/v1/ip/10.1.99.1", 200)
	if got := hostingHGs(ip); len(got) != 2 || got[0] != "Google" || got[1] != "Google" {
		t.Errorf("AS100 hostings = %v", got)
	}
	unmapped := getJSON(t, h, "/v1/ip/192.0.2.1", 200)
	if unmapped["mapped"] != false || len(unmapped["hostings"].([]any)) != 0 {
		t.Errorf("unmapped ip response = %v", unmapped)
	}
	getJSON(t, h, "/v1/ip/not-an-ip", 400)

	as := getJSON(t, h, "/v1/as/200", 200)
	hgs := hostingHGs(as)
	if len(hgs) != 2 || hgs[0] != "Google" || hgs[1] != "Netflix" {
		t.Errorf("as/200 hostings = %v", hgs)
	}
	if got := hostingHGs(getJSON(t, h, "/v1/as/999", 200)); len(got) != 0 {
		t.Errorf("as/999 hostings = %v", got)
	}
	getJSON(t, h, "/v1/as/zero", 400)
	getJSON(t, h, "/v1/as/0", 400)

	fp := getJSON(t, h, "/v1/hg/google/footprint", 200)
	if fp["snapshot"] != "2021-04" || fp["count"] != float64(2) {
		t.Errorf("footprint = %v", fp)
	}
	fp = getJSON(t, h, "/v1/hg/Google/footprint?snapshot=2021-01", 200)
	if fp["count"] != float64(1) {
		t.Errorf("footprint at 2021-01 = %v", fp)
	}
	// Numeric ID works too.
	fp = getJSON(t, h, fmt.Sprintf("/v1/hg/%d/footprint", int(hg.Netflix)), 200)
	if fp["hg"] != "Netflix" || fp["count"] != float64(1) {
		t.Errorf("numeric-id footprint = %v", fp)
	}
	// Present-window but absent snapshot, bad label, unknown HG.
	getJSON(t, h, "/v1/hg/google/footprint?snapshot=2014-01", 404)
	getJSON(t, h, "/v1/hg/google/footprint?snapshot=never", 400)
	// A month past 12 is no label on the grid, not a later month.
	getJSON(t, h, "/v1/hg/google/footprint?snapshot=2013-13", 400)
	getJSON(t, h, "/v1/hg/nosuchhg/footprint", 404)

	// Metrics surface: the handlers above must have been counted.
	req := httptest.NewRequest("GET", "/debug/vars", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("/debug/vars = %d", rec.Code)
	}
	body := rec.Body.String()
	for _, want := range []string{"offnetd.requests", "offnetd.latency", "offnetd.store", "offnetd.cache", `"footprint"`, `"generation"`, `"last_reload"`} {
		if !strings.Contains(body, want) {
			t.Errorf("/debug/vars missing %s", want)
		}
	}

	// /debug/metrics serves the same registry as one parseable obs
	// snapshot, without consuming a worker token.
	req = httptest.NewRequest("GET", "/debug/metrics", nil)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("/debug/metrics = %d", rec.Code)
	}
	snap, err := obs.ParseSnapshot(rec.Body.Bytes())
	if err != nil {
		t.Fatalf("/debug/metrics body: %v", err)
	}
	if snap.Name != "offnetd" {
		t.Errorf("metrics registry name = %q", snap.Name)
	}
	if snap.Counter("http.requests.footprint") == 0 {
		t.Errorf("footprint requests uncounted: %v", snap.Counters)
	}
	lat := snap.Histograms["http.latency_ns.footprint"]
	var inBuckets uint64
	for _, b := range lat.Buckets {
		inBuckets += b.N
	}
	if lat.Count == 0 || lat.Count != inBuckets {
		t.Errorf("footprint latency histogram inconsistent: %+v", lat)
	}
}

// TestGenerationInResponses pins the reload-race detection contract:
// every /v1/* success body names the store generation it was answered
// from, and the number moves with Reload.
func TestGenerationInResponses(t *testing.T) {
	h := New(testStore(t), Config{Workers: 4})
	paths := []string{
		"/v1/snapshots",
		"/v1/ip/10.1.2.3",
		"/v1/as/200",
		"/v1/hg/google/footprint",
	}
	for _, p := range paths {
		if got := getJSON(t, h, p, 200)["generation"]; got != float64(1) {
			t.Errorf("%s generation = %v, want 1", p, got)
		}
	}
	h.Reload(altStore(t))
	for _, p := range paths {
		if got := getJSON(t, h, p, 200)["generation"]; got != float64(2) {
			t.Errorf("%s generation after reload = %v, want 2", p, got)
		}
	}
	// /readyz names it too, and the batch envelope is covered by
	// TestBatchEndpoint.
	if got := getJSON(t, h, "/readyz", 200)["generation"]; got != float64(2) {
		t.Errorf("readyz generation = %v, want 2", got)
	}
}

// TestPprofFlag verifies the profile endpoints exist only behind
// EnablePprof (the -pprof flag).
func TestPprofFlag(t *testing.T) {
	h := New(testStore(t), Config{Workers: 4})
	req := httptest.NewRequest("GET", "/debug/pprof/", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("pprof without -pprof = %d, want 404", rec.Code)
	}
	h.EnablePprof()
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "goroutine") {
		t.Fatalf("pprof index = %d:\n%.200s", rec.Code, rec.Body.String())
	}
}

// TestConcurrentLoad floods the handler with 1000 in-flight requests
// through a small worker pool; every one must complete successfully.
// Run under -race this doubles as the lock-free-query-path check. The
// cache is on, so this also races hits, misses, and shared flights.
func TestConcurrentLoad(t *testing.T) {
	h := New(testStore(t), Config{Workers: 16, CacheSize: 64})
	urls := []string{
		"/v1/snapshots",
		"/v1/ip/10.1.2.3",
		"/v1/ip/10.1.99.1",
		"/v1/as/200",
		"/v1/hg/google/footprint",
		"/v1/hg/netflix/footprint?snapshot=2021-04",
	}
	const clients = 1000
	var wg sync.WaitGroup
	errs := make(chan string, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			url := urls[i%len(urls)]
			req := httptest.NewRequest("GET", url, nil)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != 200 {
				errs <- fmt.Sprintf("%s -> %d", url, rec.Code)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

func TestHealthEndpoints(t *testing.T) {
	h := New(testStore(t), Config{Workers: 4})
	if got := getJSON(t, h, "/healthz", 200); got["status"] != "ok" {
		t.Errorf("healthz = %v", got)
	}
	ready := getJSON(t, h, "/readyz", 200)
	if ready["ready"] != true || ready["latest"] != "2021-04" || ready["snapshots"] != float64(3) {
		t.Errorf("readyz = %v", ready)
	}
	// Readiness tracks reloads.
	h.Reload(altStore(t))
	if got := getJSON(t, h, "/readyz", 200); got["snapshots"] != float64(2) {
		t.Errorf("readyz after reload = %v", got)
	}
}

// A panicking handler costs one 500 response, never the daemon, and is
// counted.
func TestPanicRecovery(t *testing.T) {
	s := New(testStore(t), Config{Workers: 4})
	boom := s.wrap("snapshots", false, func(*view, http.ResponseWriter, *http.Request) {
		panic("boom")
	})
	req := httptest.NewRequest("GET", "/v1/snapshots", nil)
	rec := httptest.NewRecorder()
	boom(rec, req)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicking handler = %d, want 500", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "internal error") {
		t.Errorf("panic response body: %s", rec.Body.String())
	}
	if got := s.reg.Snapshot().Counter("http.panics"); got != 1 {
		t.Errorf("panics counter = %v, want 1", got)
	}
	// The worker token was released despite the panic: the pool still
	// serves.
	for i := 0; i < 8; i++ {
		getJSON(t, s, "/v1/snapshots", 200)
	}
}

// Once the worker pool is saturated past the queue deadline, requests
// are shed with 429 + Retry-After instead of piling up.
func TestLoadShedding(t *testing.T) {
	s := New(testStore(t), Config{Workers: 1, QueueWait: 5 * time.Millisecond})
	s.sem <- struct{}{} // occupy the only worker
	defer func() { <-s.sem }()

	req := httptest.NewRequest("GET", "/v1/snapshots", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated pool = %d, want 429", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("429 missing Retry-After")
	}
	if got := s.reg.Snapshot().Counter("http.shed"); got != 1 {
		t.Errorf("shed counter = %v, want 1", got)
	}
	// Health stays green through the overload: it bypasses the pool.
	getJSON(t, s, "/healthz", 200)
	getJSON(t, s, "/readyz", 200)
}

// The Retry-After hint tracks the configured queue deadline instead of
// a hardcoded second: clients should stay away at least as long as a
// request may queue.
func TestRetryAfterDerivedFromQueueWait(t *testing.T) {
	for _, tc := range []struct {
		queueWait time.Duration
		want      string
	}{
		{0, "1"}, // zero-value default (1s)
		{5 * time.Millisecond, "1"},
		{time.Second, "1"},
		{1500 * time.Millisecond, "2"}, // rounded up, never under-hinting
		{4 * time.Second, "4"},
	} {
		s := New(testStore(t), Config{Workers: 1, QueueWait: tc.queueWait})
		if s.retryAfter != tc.want {
			t.Errorf("queueWait %v: retryAfter = %q, want %q", tc.queueWait, s.retryAfter, tc.want)
			continue
		}
		if tc.queueWait != 5*time.Millisecond {
			continue // a shed waits out the full queue deadline (0 defaults to 1s); one quick case is enough
		}
		s.sem <- struct{}{} // occupy the only worker so the request sheds
		req := httptest.NewRequest("GET", "/v1/snapshots", nil)
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		<-s.sem
		if rec.Code != http.StatusTooManyRequests {
			t.Fatalf("queueWait %v: saturated pool = %d, want 429", tc.queueWait, rec.Code)
		}
		if got := rec.Header().Get("Retry-After"); got != tc.want {
			t.Errorf("queueWait %v: Retry-After = %q, want %q", tc.queueWait, got, tc.want)
		}
	}
}

// Every reload bumps the store generation and moves the last-reload
// timestamp, so an operator can confirm from /debug/vars that a SIGHUP
// actually swapped the store (and when).
func TestReloadGeneration(t *testing.T) {
	s := New(testStore(t), Config{Workers: 4})
	if got := s.Generation(); got != 1 {
		t.Fatalf("initial generation = %d, want 1", got)
	}
	t0 := s.lastReload.Load()
	if t0 == 0 {
		t.Fatal("initial load left no timestamp")
	}
	s.Reload(altStore(t))
	if got := s.Generation(); got != 2 {
		t.Errorf("generation after reload = %d, want 2", got)
	}
	s.Reload(altStore(t))
	if got := s.Generation(); got != 3 {
		t.Errorf("generation after second reload = %d, want 3", got)
	}
	if s.lastReload.Load() < t0 {
		t.Error("last-reload timestamp moved backwards")
	}
}

// TestHotReloadUnderLoad hammers the handler with 1000 concurrent
// requests while the store is swapped repeatedly. Every response must
// be a 2xx (a deliberate 429 shed would also be legal, but the queue
// deadline here is generous) and every footprint answer must be
// internally consistent with exactly one store version. Run under
// -race this is the zero-downtime reload proof. The cache is enabled,
// so the swap loop also races flush against hits and inserts.
func TestHotReloadUnderLoad(t *testing.T) {
	a, b := testStore(t), altStore(t)
	s := New(a, Config{Workers: 16, QueueWait: 5 * time.Second, CacheSize: 32})
	urls := []string{
		"/v1/snapshots",
		"/v1/ip/10.1.2.3",
		"/v1/as/200",
		"/v1/hg/google/footprint?snapshot=2021-04",
		"/readyz",
	}
	const clients = 1000
	stopSwap := make(chan struct{})
	var swaps int
	var swapWG sync.WaitGroup
	swapWG.Add(1)
	go func() {
		defer swapWG.Done()
		stores := []*footstore.Store{b, a}
		for i := 0; ; i++ {
			select {
			case <-stopSwap:
				return
			default:
			}
			s.Reload(stores[i%2])
			swaps++
			time.Sleep(100 * time.Microsecond)
		}
	}()

	var wg sync.WaitGroup
	errs := make(chan string, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			url := urls[i%len(urls)]
			req := httptest.NewRequest("GET", url, nil)
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, req)
			switch rec.Code {
			case http.StatusOK:
			case http.StatusTooManyRequests: // legal shed, not a failure
			default:
				errs <- fmt.Sprintf("%s -> %d: %s", url, rec.Code, rec.Body.String())
				return
			}
			// Footprint answers must match one of the two versions
			// exactly — never a torn mix.
			if strings.Contains(url, "footprint") && rec.Code == http.StatusOK {
				var fp struct {
					ASes  []astopo.ASN `json:"ases"`
					Count int          `json:"count"`
				}
				err := json.Unmarshal(rec.Body.Bytes(), &fp)
				if err != nil || fp.Count != len(fp.ASes) || (fp.Count != 2 && fp.Count != 3) {
					errs <- fmt.Sprintf("torn footprint response: %s", rec.Body.String())
				}
			}
		}(i)
	}
	wg.Wait()
	close(stopSwap)
	swapWG.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if swaps < 3 {
		t.Fatalf("only %d store swaps happened during the load", swaps)
	}
}

// TestEndToEndAgainstGroundTruth runs the whole flow in-process: world
// → scan → §4 pipeline → store → serving layer, then checks the served
// answers against the simulator's ground truth for Google.
func TestEndToEndAgainstGroundTruth(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a world")
	}
	world, err := worldsim.New(worldsim.Config{Seed: 7, Scale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	s := timeline.Snapshot(timeline.Count() - 1)
	snap := scanners.Scan(world, scanners.Rapid7Profile(), s)
	pipeline := &core.Pipeline{
		Trust:  world.TrustStore(),
		Orgs:   world.Orgs(),
		Mapper: func(s timeline.Snapshot) core.IPMapper { return world.IP2AS(s) },
		Opts:   core.DefaultOptions(),
	}
	res := pipeline.Run(snap)
	st, err := footstore.FromResult(res, world.IP2AS(s))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(New(st, Config{Workers: 64, CacheSize: 128}))
	defer srv.Close()

	get := func(path string, wantCode int) map[string]any {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != wantCode {
			t.Fatalf("GET %s = %d, want %d", path, resp.StatusCode, wantCode)
		}
		var out map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out
	}

	// /v1/snapshots carries the scanned month.
	if got := get("/v1/snapshots", 200); got["latest"] != s.Label() {
		t.Errorf("latest = %v, want %s", got["latest"], s.Label())
	}

	// /v1/hg footprint equals the pipeline's confirmed set and covers
	// most of the ground truth (the paper reports ~90 % recall).
	inferred := res.PerHG[hg.Google].ConfirmedASes
	fp := get("/v1/hg/google/footprint?snapshot="+s.Label(), 200)
	if fp["count"] != float64(len(inferred)) {
		t.Errorf("served footprint count %v, pipeline %d", fp["count"], len(inferred))
	}
	served := make(map[astopo.ASN]bool)
	for _, v := range fp["ases"].([]any) {
		served[astopo.ASN(v.(float64))] = true
	}
	truth := world.TrueOffNetASes(hg.Google, s)
	hits := 0
	for _, as := range truth {
		if served[as] {
			hits++
		}
	}
	if len(truth) == 0 || hits*2 < len(truth) {
		t.Errorf("served footprint covers %d/%d true off-net ASes", hits, len(truth))
	}

	// /v1/ip and /v1/as for a confirmed off-net IP must name Google.
	ips := res.PerHG[hg.Google].ConfirmedIPList
	if len(ips) == 0 {
		t.Fatal("pipeline confirmed no Google IPs")
	}
	ipResp := get("/v1/ip/"+ips[0].String(), 200)
	if ipResp["mapped"] != true {
		t.Fatalf("confirmed IP unmapped: %v", ipResp)
	}
	found := false
	for _, name := range hostingHGs(ipResp) {
		if name == "Google" {
			found = true
		}
	}
	if !found {
		t.Errorf("/v1/ip/%s does not name Google: %v", ips[0], ipResp)
	}
	as, ok := world.IP2AS(s).LookupOne(ips[0])
	if !ok {
		t.Fatal("ground-truth mapper cannot resolve confirmed IP")
	}
	found = false
	for _, name := range hostingHGs(get(fmt.Sprintf("/v1/as/%d", as), 200)) {
		if name == "Google" {
			found = true
		}
	}
	if !found {
		t.Errorf("/v1/as/%d does not name Google", as)
	}
}
