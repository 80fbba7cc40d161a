// Package offnetserve is the HTTP serving layer over a footstore: the
// engine inside cmd/offnetd, factored out so load generators
// (internal/loadgen), benchmarks, and tests can drive the exact
// production handler stack in-process, without a socket.
//
// The package owns the whole serving contract:
//
//   - the /v1/* query surface (single-IP, AS, footprint, snapshots) plus
//     POST /v1/batch for amortized bulk IP→HG resolution;
//   - a bounded worker pool with queue-deadline load shedding;
//   - zero-downtime store reloads: the store pointer and its generation
//     number swap together in one atomic pointer, and every /v1/*
//     response body carries the generation it was answered from, so
//     clients can detect reload races;
//   - an optional singleflight-deduped LRU cache for hot answers, keyed
//     by (request URI, store generation) and flushed wholesale on
//     reload (cache.go);
//   - obs metrics for all of the above.
package offnetserve

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"offnetscope/internal/astopo"
	"offnetscope/internal/footstore"
	"offnetscope/internal/hg"
	"offnetscope/internal/netmodel"
	"offnetscope/internal/obs"
	"offnetscope/internal/resilience"
	"offnetscope/internal/timeline"
)

// view is one immutable (store, generation) pair. The pair swaps as a
// unit behind a single atomic pointer, so a request that pins a view
// can never observe a store from one generation labeled with another —
// the invariant the generation-keyed cache and the generation field in
// response bodies both rely on.
type view struct {
	st  *footstore.Store
	gen uint64
}

// Config carries the serving knobs cmd/offnetd exposes as flags. The
// zero value is usable: 256 workers, 1s queue wait, cache disabled,
// 1024-item batch limit.
type Config struct {
	Workers   int           // max concurrently served requests (0: 256)
	QueueWait time.Duration // max queue time before a 429 shed (0: 1s)
	CacheSize int           // query-cache capacity in entries (0: cache disabled)
	MaxBatch  int           // max IPs per /v1/batch request (0: 1024)

	// RequestTimeout is the end-to-end budget for one request: queueing
	// for a worker AND handling share it, so it is a promise about total
	// latency, not handler time. Expiry answers 504 — distinct from the
	// 429 shed (load control working) and 503 (client gone / breaker
	// open). Zero disables the deadline.
	RequestTimeout time.Duration

	// BreakerFailures is the consecutive server-side-failure count
	// (panics, deadline expiries) that trips the overload breaker into
	// failing fast with 503. Zero means 32; negative disables the
	// breaker entirely.
	BreakerFailures int
	// BreakerOpenFor is how long a tripped breaker rejects before
	// admitting a probe request. Zero means 1s.
	BreakerOpenFor time.Duration
}

// DefaultMaxBatch caps /v1/batch when Config.MaxBatch is zero. A batch
// occupies one worker slot for its whole run, so the cap bounds how
// long one request can monopolize a worker.
const DefaultMaxBatch = 1024

// Server binds an immutable footprint store to the HTTP surface. The
// only shared mutable state is the atomic view pointer, the atomic
// metrics, the worker semaphore, and the mutex-guarded cache, so any
// number of requests can run concurrently. Reload may be called
// concurrently with serving but callers must serialize Reload against
// itself (cmd/offnetd's signal loop does).
type Server struct {
	view       atomic.Pointer[view]
	sem        chan struct{} // bounded worker pool: one token per in-flight request
	queueWait  time.Duration // how long a request may queue for a worker before being shed
	retryAfter string        // Retry-After seconds on a shed, derived from queueWait
	timeout    time.Duration // end-to-end request deadline; 0 disables
	lastReload atomic.Int64  // unix nanos of the last swap (or initial load)
	cache      *cache        // nil when disabled
	maxBatch   int
	mux        *http.ServeMux

	// breaker fails fast once the serving path itself keeps failing
	// (panics, deadline overruns). Shedding is not failure — it is the
	// load control working — so only server-side faults feed it.
	breaker *resilience.Breaker

	// degraded, when non-nil, describes why the daemon is serving in a
	// degraded mode (e.g. after a corrupt candidate store was refused by
	// reload validation). /readyz reports it; a committed reload clears
	// it. The pointer swaps atomically so readers never see a torn
	// record.
	degraded atomic.Pointer[DegradedInfo]

	// Metrics live in one obs registry (served whole at /debug/metrics)
	// but the hot path only touches these pre-resolved handles — the
	// registry's name-lookup mutex is never taken while serving.
	reg                    *obs.Registry
	reqCount               map[string]*obs.Counter   // per-endpoint requests
	reqLatency             map[string]*obs.Histogram // per-endpoint latency, log2-ns buckets
	panics, shed, rejected *obs.Counter
	timeouts               *obs.Counter // 504s: requests that overran RequestTimeout
	breakerOpen            *obs.Counter // 503s: requests refused by the open breaker
	batchItems             *obs.Counter // total IPs resolved through /v1/batch
	reloadAccepted         *obs.Counter // committed store swaps (validated or direct)
	reloadRejected         *obs.Counter // candidate stores refused by validation
	reloadValidateNs       *obs.Histogram
	genGauge               *obs.Gauge
}

// errServeFailure is what the breaker sees when a request panicked or
// overran its deadline: a server-side fault, as opposed to client
// errors or sheds which say nothing about the serving path's health.
var errServeFailure = errors.New("offnetserve: server-side failure")

// storeHandler is a data endpoint: it receives the (store, generation)
// view pinned for this request.
type storeHandler func(v *view, w http.ResponseWriter, r *http.Request)

// endpoints names the data endpoints, used as metric keys.
var endpoints = []string{"snapshots", "ip", "as", "footprint", "batch"}

// New builds the daemon's handler around an initial store (generation
// 1). /healthz, /readyz, and /debug/metrics bypass the worker pool
// entirely — health checks and overload diagnostics must answer even
// when no worker token is free.
func New(st *footstore.Store, cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = 256
	}
	if cfg.QueueWait <= 0 {
		cfg.QueueWait = time.Second
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = DefaultMaxBatch
	}
	reg := obs.NewRegistry("offnetd")
	s := &Server{
		sem:              make(chan struct{}, cfg.Workers),
		queueWait:        cfg.QueueWait,
		retryAfter:       retryAfterSeconds(cfg.QueueWait),
		timeout:          cfg.RequestTimeout,
		maxBatch:         cfg.MaxBatch,
		reg:              reg,
		reqCount:         make(map[string]*obs.Counter, len(endpoints)),
		reqLatency:       make(map[string]*obs.Histogram, len(endpoints)),
		panics:           reg.Counter("http.panics"),
		shed:             reg.Counter("http.shed"),
		rejected:         reg.Counter("http.rejected"),
		timeouts:         reg.Counter("http.timeouts"),
		breakerOpen:      reg.Counter("http.breaker_open"),
		batchItems:       reg.Counter("http.batch_items"),
		reloadAccepted:   reg.Counter("reload.accepted"),
		reloadRejected:   reg.Counter("reload.rejected"),
		reloadValidateNs: reg.Histogram("reload.validate_ns"),
		genGauge:         reg.Gauge("store.generation"),
	}
	for _, name := range endpoints {
		s.reqCount[name] = reg.Counter("http.requests." + name)
		s.reqLatency[name] = reg.Histogram("http.latency_ns." + name)
	}
	if cfg.BreakerFailures >= 0 {
		failures := cfg.BreakerFailures
		if failures == 0 {
			failures = 32
		}
		openFor := cfg.BreakerOpenFor
		if openFor <= 0 {
			openFor = time.Second
		}
		s.breaker = resilience.NewBreaker(resilience.BreakerPolicy{
			ConsecutiveFailures: failures,
			OpenFor:             openFor,
			Metrics:             reg,
			Name:                "serve",
		})
	}
	if cfg.CacheSize > 0 {
		s.cache = newCache(cfg.CacheSize, reg)
	}
	s.view.Store(&view{st: st, gen: 1})
	s.lastReload.Store(time.Now().UnixNano())
	s.genGauge.Set(1)
	publishMetrics(s)

	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/snapshots", s.wrap("snapshots", true, handleSnapshots))
	mux.HandleFunc("GET /v1/ip/{ip}", s.wrap("ip", true, handleIP))
	mux.HandleFunc("GET /v1/as/{asn}", s.wrap("as", true, handleAS))
	mux.HandleFunc("GET /v1/hg/{id}/footprint", s.wrap("footprint", true, handleFootprint))
	mux.HandleFunc("POST /v1/batch", s.wrap("batch", false, s.handleBatch))
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.Handle("GET /debug/vars", expvar.Handler())
	mux.HandleFunc("GET /debug/metrics", s.handleMetrics)
	s.mux = mux
	return s
}

// EnablePprof mounts the net/http/pprof handlers on the daemon's mux
// (the -pprof flag). Note the daemon's -timeout wraps these too: CPU
// profiles need ?seconds= below the request timeout, or a raised
// -timeout.
func (s *Server) EnablePprof() {
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Generation returns the current store generation (1 at startup, +1
// per successful reload).
func (s *Server) Generation() uint64 { return s.view.Load().gen }

// Store returns the currently served store.
func (s *Server) Store() *footstore.Store { return s.view.Load().st }

// Registry exposes the server's metrics registry (for tests and for
// embedding processes that merge snapshots).
func (s *Server) Registry() *obs.Registry { return s.reg }

// Reload atomically swaps the served store and bumps the generation.
// In-flight requests finish on the view they pinned; new requests see
// the new store and generation together. The query cache is flushed
// wholesale: old-generation keys are unreachable from the new view
// anyway (the generation is part of the key), so the flush is memory
// hygiene, not correctness.
func (s *Server) Reload(st *footstore.Store) {
	next := &view{st: st, gen: s.view.Load().gen + 1}
	s.view.Store(next)
	s.genGauge.Set(int64(next.gen))
	s.lastReload.Store(time.Now().UnixNano())
	s.cache.flush(next.gen)
	s.reloadAccepted.Inc()
	// A committed swap supersedes any earlier rejection: the daemon is
	// serving fresh, validated data again.
	s.degraded.Store(nil)
}

// retryAfterSeconds renders the Retry-After hint for shed requests: a
// client should stay away at least as long as a request may queue, so
// the hint is queueWait rounded up to whole seconds (minimum 1 — the
// header's granularity).
func retryAfterSeconds(queueWait time.Duration) string {
	secs := int64((queueWait + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}

// wrap applies panic recovery, the overload breaker, the per-request
// deadline, the worker bound with queue-deadline load shedding, the
// per-request view pin, the query cache (for cacheable GET endpoints),
// and per-endpoint request counts and latency. A batch occupies
// exactly one worker slot like any other request — that is the
// amortization contract.
//
// The status-code contract, one code per failure mode:
//
//	429  shed: queued past queueWait while saturated (load control)
//	503  client gave up while queued, or the breaker is open
//	504  the request overran RequestTimeout (queue time included)
//	500  the handler panicked
//
// Only the 500 and 504 paths feed the breaker as failures: sheds and
// client cancellations say nothing about the serving path's health.
func (s *Server) wrap(name string, cacheable bool, h storeHandler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		// The breaker fails fast before any queueing: once the serving
		// path itself keeps failing, queueing more work behind it only
		// deepens the outage.
		if s.breaker != nil {
			if s.breaker.Allow() != nil {
				s.breakerOpen.Inc()
				w.Header().Set("Retry-After", s.retryAfter)
				writeError(w, http.StatusServiceUnavailable, "circuit breaker open, retry later")
				return
			}
		}
		failed := false
		if s.breaker != nil {
			defer func() {
				var err error
				if failed {
					err = errServeFailure
				}
				s.breaker.Record(err)
			}()
		}
		// A bug in one handler must cost one 500, never the daemon.
		defer func() {
			if v := recover(); v != nil {
				failed = true
				s.panics.Inc()
				writeError(w, http.StatusInternalServerError, fmt.Sprintf("internal error: %v", v))
			}
		}()
		// The deadline starts before queueing: RequestTimeout is a
		// promise about total latency, so queue time spends the same
		// budget the handler does.
		ctx := r.Context()
		if s.timeout > 0 {
			// Not context.WithTimeout: the lazy deadlineCtx defers its
			// timer and channel until someone actually waits on Done(),
			// which keeps the uncontended path allocation-free.
			dctx := newDeadlineCtx(ctx, s.timeout)
			defer dctx.release()
			ctx = dctx
			r = r.WithContext(ctx)
		}
		select {
		case s.sem <- struct{}{}:
		default:
			// Saturated: queue for at most queueWait, then shed. 429
			// tells well-behaved clients to back off, which is what
			// keeps the daemon live through an overload instead of
			// letting every request time out at the full deadline.
			t := time.NewTimer(s.queueWait)
			select {
			case s.sem <- struct{}{}:
				t.Stop()
			case <-t.C:
				s.shed.Inc()
				w.Header().Set("Retry-After", s.retryAfter)
				writeError(w, http.StatusTooManyRequests, "server overloaded, request shed")
				return
			case <-ctx.Done():
				t.Stop()
				if errors.Is(ctx.Err(), context.DeadlineExceeded) {
					failed = true
					s.timeouts.Inc()
					writeError(w, http.StatusGatewayTimeout, "request deadline exceeded while queued")
				} else {
					s.rejected.Inc()
					writeError(w, http.StatusServiceUnavailable, "client gave up while queued")
				}
				return
			}
		}
		defer func() { <-s.sem }()
		if s.timeout > 0 && ctx.Err() != nil {
			// The budget ran out between queue admission and dispatch
			// (an uncontended sem receive does not check the context).
			if errors.Is(ctx.Err(), context.DeadlineExceeded) {
				failed = true
				s.timeouts.Inc()
				writeError(w, http.StatusGatewayTimeout, "request deadline exceeded before dispatch")
			} else {
				s.rejected.Inc()
				writeError(w, http.StatusServiceUnavailable, "client gone before dispatch")
			}
			return
		}
		start := time.Now()
		v := s.view.Load()
		if cacheable && s.cache != nil {
			s.serveCached(v, h, w, r)
		} else {
			h(v, w, r)
		}
		if s.timeout > 0 && errors.Is(ctx.Err(), context.DeadlineExceeded) {
			// The handler overran the budget mid-flight (the batch loop
			// answers its own 504); either way the request blew its
			// deadline — overload evidence the breaker must see.
			failed = true
			s.timeouts.Inc()
		}
		s.reqCount[name].Inc()
		s.reqLatency[name].Since(start)
	}
}

// serveCached answers from the generation-keyed cache when possible.
// The key is the full request URI under the view's generation; a miss
// runs the handler once into a recorder — concurrent identical misses
// share that single execution via the cache's singleflight — and only
// 200s are stored. The X-Offnet-Cache header names the path taken
// (hit, miss, or shared) so tests and clients can observe it.
func (s *Server) serveCached(v *view, h storeHandler, w http.ResponseWriter, r *http.Request) {
	key := r.URL.RequestURI()
	if e, ok := s.cache.get(v.gen, key); ok {
		writeEntry(w, e, "hit")
		return
	}
	leader := false
	e := s.cache.do(v.gen, key, func() entry {
		leader = true
		rec := recorder{status: http.StatusOK}
		h(v, &rec, r)
		return rec.entry()
	})
	if e.status == 0 {
		// The singleflight leader panicked before producing a response;
		// the leader's own request already turned that into a 500.
		writeError(w, http.StatusInternalServerError, "internal error: cache leader failed")
		return
	}
	if leader {
		writeEntry(w, e, "miss")
	} else {
		writeEntry(w, e, "shared")
	}
}

// recorder captures one handler response for the cache. Handlers only
// set Content-Type and write a JSON body, so that is all it keeps.
type recorder struct {
	status int
	header http.Header
	body   []byte
}

func (rec *recorder) Header() http.Header {
	if rec.header == nil {
		rec.header = make(http.Header)
	}
	return rec.header
}

func (rec *recorder) WriteHeader(code int) { rec.status = code }

func (rec *recorder) Write(p []byte) (int, error) {
	rec.body = append(rec.body, p...)
	return len(p), nil
}

func (rec *recorder) entry() entry {
	return entry{status: rec.status, ctype: rec.Header().Get("Content-Type"), body: rec.body}
}

// writeEntry replays a recorded response. The cached body bytes are
// shared across responses and never mutated.
func writeEntry(w http.ResponseWriter, e entry, cacheState string) {
	if e.ctype != "" {
		w.Header().Set("Content-Type", e.ctype)
	}
	w.Header().Set("X-Offnet-Cache", cacheState)
	w.WriteHeader(e.status)
	w.Write(e.body)
}

// handleMetrics serves the whole obs registry as one JSON snapshot.
// Like the health checks it bypasses the worker pool: the snapshot is
// a few atomic loads, and an operator debugging an overload needs the
// metrics precisely when no worker token is free.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	s.reg.Snapshot().WriteJSON(w)
}

// handleHealthz is liveness: the process is up and serving HTTP.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok"})
}

// handleReadyz is readiness: a valid, non-empty store is loaded. It
// stays true across hot reloads — the old store serves until the swap —
// and across rejected reloads, which only add a "degraded" note: the
// old generation is still perfectly good data, but operators need to
// see that a newer candidate was refused.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	v := s.view.Load()
	if v.st == nil || v.st.Stats().Snapshots == 0 {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"ready": false})
		return
	}
	resp := map[string]any{
		"ready":      true,
		"snapshots":  v.st.Stats().Snapshots,
		"latest":     v.st.Latest().Label(),
		"generation": v.gen,
	}
	if d := s.degraded.Load(); d != nil {
		// "degraded" stays the bare reason string — the stable contract
		// health checks key on — while "degraded_detail" carries the
		// typed record (error text, and for corrupt candidates the file
		// path and byte offset) operators need to act on the refusal.
		resp["degraded"] = d.Reason
		resp["degraded_detail"] = d
	}
	writeJSON(w, http.StatusOK, resp)
}

// hostingJSON is the wire form of one hypergiant presence run.
type hostingJSON struct {
	HG      string     `json:"hg"`
	AS      astopo.ASN `json:"as"`
	First   string     `json:"first"`
	Last    string     `json:"last"`
	Current bool       `json:"current"` // still present at the store's latest snapshot
}

func hostingsJSON(st *footstore.Store, as astopo.ASN) []hostingJSON {
	latest := st.Latest()
	out := []hostingJSON{}
	for _, h := range st.HostingsOf(as) {
		out = append(out, hostingJSON{
			HG:      h.HG.String(),
			AS:      h.AS,
			First:   h.First.Label(),
			Last:    h.Last.Label(),
			Current: h.Last == latest,
		})
	}
	return out
}

// handleSnapshots answers GET /v1/snapshots.
func handleSnapshots(v *view, w http.ResponseWriter, r *http.Request) {
	snaps := v.st.Snapshots()
	labels := make([]string, len(snaps))
	for i, sn := range snaps {
		labels[i] = sn.Label()
	}
	hgs := []string{}
	for _, id := range v.st.Hypergiants() {
		hgs = append(hgs, id.String())
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"snapshots":   labels,
		"latest":      v.st.Latest().Label(),
		"hypergiants": hgs,
		"generation":  v.gen,
	})
}

// resolveIP computes the /v1/ip answer for one parsed address — shared
// by the single-IP endpoint and every /v1/batch item.
func resolveIP(st *footstore.Store, ip netmodel.IP) map[string]any {
	prefix, origins, ok := st.LookupIP(ip)
	resp := map[string]any{"ip": ip.String(), "mapped": ok}
	hostings := []hostingJSON{}
	if ok {
		resp["prefix"] = prefix.String()
		resp["asns"] = origins
		for _, as := range origins {
			hostings = append(hostings, hostingsJSON(st, as)...)
		}
	}
	resp["hostings"] = hostings
	return resp
}

// handleIP answers GET /v1/ip/{ip}: which hypergiants serve from this
// address's network, and since when.
func handleIP(v *view, w http.ResponseWriter, r *http.Request) {
	ip, err := netmodel.ParseIP(r.PathValue("ip"))
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	resp := resolveIP(v.st, ip)
	resp["generation"] = v.gen
	writeJSON(w, http.StatusOK, resp)
}

// handleAS answers GET /v1/as/{asn}: the AS's hypergiant tenants over
// the whole study window.
func handleAS(v *view, w http.ResponseWriter, r *http.Request) {
	n, err := strconv.ParseUint(r.PathValue("asn"), 10, 32)
	if err != nil || n == 0 {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("invalid ASN %q", r.PathValue("asn")))
		return
	}
	as := astopo.ASN(n)
	writeJSON(w, http.StatusOK, map[string]any{
		"asn":        as,
		"hostings":   hostingsJSON(v.st, as),
		"generation": v.gen,
	})
}

// handleFootprint answers GET /v1/hg/{id}/footprint?snapshot=YYYY-MM
// (default: the latest snapshot in the store).
func handleFootprint(v *view, w http.ResponseWriter, r *http.Request) {
	h, ok := parseHG(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("unknown hypergiant %q", r.PathValue("id")))
		return
	}
	snap := v.st.Latest()
	if label := r.URL.Query().Get("snapshot"); label != "" {
		snap, ok = timeline.FromLabel(label)
		if !ok {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("invalid snapshot %q (want YYYY-MM on the quarterly grid)", label))
			return
		}
	}
	ases, ok := v.st.Footprint(h.ID, snap)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("snapshot %s not in store", snap.Label()))
		return
	}
	if ases == nil {
		ases = []astopo.ASN{}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"hg":         h.Name,
		"snapshot":   snap.Label(),
		"count":      len(ases),
		"ases":       ases,
		"generation": v.gen,
	})
}

// parseHG accepts a hypergiant display name (case-insensitive) or a
// numeric registry ID.
func parseHG(s string) (*hg.Hypergiant, bool) {
	if h, ok := hg.ByName(s); ok {
		return h, true
	}
	if n, err := strconv.Atoi(s); err == nil && n > 0 && n <= hg.Count {
		return hg.Get(hg.ID(n)), true
	}
	return nil, false
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}

// publishMetrics exposes the first server's metrics under /debug/vars —
// the legacy expvar view of the same obs registry /debug/metrics serves
// whole. expvar's registry is global and rejects duplicate names, so
// later servers in the same process (tests, in-process load runs) keep
// private metrics.
var publishOnce sync.Once

func publishMetrics(s *Server) {
	publishOnce.Do(func() {
		expvar.Publish("offnetd.requests", expvar.Func(func() any {
			snap := s.reg.Snapshot()
			out := map[string]any{
				"panics":   snap.Counter("http.panics"),
				"shed":     snap.Counter("http.shed"),
				"rejected": snap.Counter("http.rejected"),
			}
			for _, name := range endpoints {
				out[name] = snap.Counter("http.requests." + name)
			}
			return out
		}))
		expvar.Publish("offnetd.latency", expvar.Func(func() any {
			snap := s.reg.Snapshot()
			out := map[string]any{}
			for _, name := range endpoints {
				h := snap.Histograms["http.latency_ns."+name]
				out[name] = map[string]any{
					"count":   h.Count,
					"mean":    time.Duration(h.Mean()).String(),
					"buckets": h.Buckets,
				}
			}
			return out
		}))
		expvar.Publish("offnetd.store", expvar.Func(func() any {
			v := s.view.Load()
			return map[string]any{
				"stats":       v.st.Stats(),
				"generation":  v.gen,
				"last_reload": time.Unix(0, s.lastReload.Load()).UTC().Format(time.RFC3339),
			}
		}))
		expvar.Publish("offnetd.cache", expvar.Func(func() any {
			snap := s.reg.Snapshot()
			return map[string]any{
				"hits":      snap.Counter("cache.hits"),
				"misses":    snap.Counter("cache.misses"),
				"shared":    snap.Counter("cache.shared"),
				"evictions": snap.Counter("cache.evictions"),
				"flushed":   snap.Counter("cache.flushed"),
				"entries":   snap.Gauges["cache.entries"],
			}
		}))
	})
}
