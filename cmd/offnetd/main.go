// Command offnetd serves a footprint store over HTTP/JSON — the
// consumer side of the worldgen → offnetmap → offnetd flow. It loads
// an immutable store produced by `offnetmap -store`, then answers
// lookup queries from any number of concurrent clients:
//
//	GET  /v1/snapshots                        the study window in the store
//	GET  /v1/ip/{ip}                          who serves from this address, since when
//	GET  /v1/as/{asn}                         a network's hypergiant tenants over time
//	GET  /v1/hg/{id}/footprint?snapshot=YYYY-MM  one hypergiant's off-net AS set
//	POST /v1/batch                            bulk IP→HG resolution: {"ips": [...]}, one
//	                                          worker slot per batch (limit: -max-batch)
//	GET  /healthz                             liveness (never consumes a worker)
//	GET  /readyz                              readiness: a valid store is loaded
//	GET  /debug/vars                          request counters + latency histograms (expvar)
//	GET  /debug/metrics                       the full obs metrics registry as one JSON snapshot
//	GET  /debug/pprof/...                     runtime profiles (only with -pprof)
//
// Usage:
//
//	offnetd -store offnets.fst [-addr localhost:8097] [-workers 256] [-timeout 5s]
//	        [-queue-wait 1s] [-cache 0] [-max-batch 1024] [-pprof]
//	        [-read-header-timeout 5s] [-read-timeout 30s] [-write-timeout 30s]
//	        [-idle-timeout 60s] [-breaker-failures 32] [-breaker-open-for 1s]
//
// Every /v1/* response body carries the store "generation" it was
// answered from, so clients can detect reload races. Each query is
// answered by its handler unless -cache N asks for the N hottest
// answers to be kept in a singleflight-deduped LRU keyed by (query,
// generation); a SIGHUP reload bumps the generation and flushes the
// cache wholesale, so a stale answer can never be served. The default,
// -cache 0, disables it: under the benchmark's zipf traffic the cache
// hit 15% of queries, and its bookkeeping cost more than the answers
// it saved. Production behavior: requests beyond the worker
// pool queue up to -queue-wait and are then shed with 429 +
// Retry-After (the hint is -queue-wait rounded up to whole seconds);
// -timeout is an end-to-end per-request deadline (queueing included)
// that answers 504 on expiry; repeated server-side failures trip a
// circuit breaker (-breaker-failures, -breaker-open-for) that fails
// fast with 503; handler panics cost one 500, never the process. The
// four -read-header/-read/-write/-idle-timeout flags bound connection
// lifecycles at the http.Server layer (slowloris defense). Each must be
// positive: net/http reads a negative bound as none, and a zero one as
// none or as -read-timeout. SIGHUP re-opens the store file, validates
// it structurally AND with smoke queries, and atomically swaps it in
// with zero downtime — a corrupt, empty, or otherwise invalid file is
// rejected, the current store keeps serving, reload.rejected counts
// the refusal, and /readyz reports "degraded": "reload-rejected" until
// a good reload lands.
// The daemon shuts down gracefully on SIGINT/SIGTERM.
//
// With -genlog DIR the daemon serves a live timeline instead of one
// file: the initial store is the newest committed generation in the
// generation log at DIR (written by cmd/offnetwatchd), and a watcher
// polls the log's manifest every -watch-interval, funnelling each newly
// committed generation through the same validated reload path. A
// generation that fails to load or validate is skipped — /readyz goes
// degraded with the corrupt file's path and offset until the next good
// one lands. In this mode the watcher owns reloads, so SIGHUP is a
// logged no-op; -store is only consulted as a bootstrap when the log is
// still empty.
//
// The serving engine itself lives in internal/offnetserve, so the load
// generator (cmd/loadgen) and the serving benchmarks can drive the
// identical handler stack in-process.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"offnetscope/internal/footstore"
	"offnetscope/internal/offnetserve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("offnetd: ")
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// daemonConfig is the parsed flag set — split out of run so tests can
// pin the flag → server wiring without a socket.
type daemonConfig struct {
	storePath     string
	genlogDir     string
	watchInterval time.Duration
	addr          string
	workers       int
	timeout       time.Duration
	queueWait     time.Duration
	cacheSize     int
	maxBatch      int
	pprofOn       bool

	readHeaderTimeout time.Duration
	readTimeout       time.Duration
	writeTimeout      time.Duration
	idleTimeout       time.Duration

	breakerFailures int
	breakerOpenFor  time.Duration
}

func parseFlags(args []string) (*daemonConfig, error) {
	cfg := &daemonConfig{}
	fs := flag.NewFlagSet("offnetd", flag.ContinueOnError)
	fs.StringVar(&cfg.storePath, "store", "", "footstore file written by offnetmap -store (required unless -genlog; with -genlog: bootstrap for an empty log)")
	fs.StringVar(&cfg.genlogDir, "genlog", "", "serve a live generation log (written by offnetwatchd) instead of one store file")
	fs.DurationVar(&cfg.watchInterval, "watch-interval", 250*time.Millisecond, "generation-log manifest poll period (with -genlog)")
	fs.StringVar(&cfg.addr, "addr", "localhost:8097", "listen address")
	fs.IntVar(&cfg.workers, "workers", 256, "max concurrently served requests")
	fs.DurationVar(&cfg.timeout, "timeout", 5*time.Second, "end-to-end per-request deadline, queueing included (504 on expiry; 0 disables)")
	fs.DurationVar(&cfg.queueWait, "queue-wait", time.Second, "max time a request queues for a worker before a 429 shed")
	fs.IntVar(&cfg.cacheSize, "cache", 0, "query-cache capacity in entries (0, the default, disables the cache)")
	fs.IntVar(&cfg.maxBatch, "max-batch", offnetserve.DefaultMaxBatch, "max IPs per /v1/batch request")
	fs.BoolVar(&cfg.pprofOn, "pprof", false, "serve net/http/pprof profiles under /debug/pprof/ (CPU profiles need ?seconds= below -timeout)")
	fs.DurationVar(&cfg.readHeaderTimeout, "read-header-timeout", 5*time.Second, "http.Server ReadHeaderTimeout (slowloris bound)")
	fs.DurationVar(&cfg.readTimeout, "read-timeout", 30*time.Second, "http.Server ReadTimeout (whole request read)")
	fs.DurationVar(&cfg.writeTimeout, "write-timeout", 30*time.Second, "http.Server WriteTimeout (whole response write)")
	fs.DurationVar(&cfg.idleTimeout, "idle-timeout", 60*time.Second, "http.Server IdleTimeout (keep-alive connections)")
	fs.IntVar(&cfg.breakerFailures, "breaker-failures", 32, "consecutive server-side failures tripping the overload breaker (negative disables)")
	fs.DurationVar(&cfg.breakerOpenFor, "breaker-open-for", time.Second, "how long a tripped breaker fails fast before probing")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if cfg.storePath == "" && cfg.genlogDir == "" {
		fs.Usage()
		return nil, fmt.Errorf("-store or -genlog is required")
	}
	// The engine reads each of these values as a default or as 0, so the
	// daemon would serve with settings other than the ones it prints.
	var bad string
	switch {
	case cfg.workers < 1:
		bad = "-workers must be at least 1"
	case cfg.maxBatch < 1:
		bad = "-max-batch must be at least 1"
	case cfg.queueWait <= 0:
		bad = "-queue-wait must be positive"
	case cfg.cacheSize < 0:
		bad = "-cache must not be negative (0 disables)"
	case cfg.timeout < 0:
		bad = "-timeout must not be negative (0 disables)"
	case cfg.breakerFailures == 0:
		bad = "-breaker-failures must not be 0 (negative disables)"
	case cfg.breakerOpenFor <= 0:
		bad = "-breaker-open-for must be positive"
	case cfg.watchInterval <= 0:
		bad = "-watch-interval must be positive"
	// net/http reads a connection bound of 0 or less as none (or, for
	// the header and idle bounds, as the read bound).
	case cfg.readHeaderTimeout <= 0:
		bad = "-read-header-timeout must be positive"
	case cfg.readTimeout <= 0:
		bad = "-read-timeout must be positive"
	case cfg.writeTimeout <= 0:
		bad = "-write-timeout must be positive"
	case cfg.idleTimeout <= 0:
		bad = "-idle-timeout must be positive"
	}
	if bad != "" {
		fs.Usage()
		return nil, errors.New(bad)
	}
	return cfg, nil
}

// newHTTPServer wires the connection-lifecycle timeouts. Per-request
// deadlines live inside the serving engine (offnetserve wraps every
// request in a context deadline), so no http.TimeoutHandler: these
// four bounds exist to shed malicious or dying connections — slow
// headers, slow bodies, unread responses, idle keep-alives — before
// they pin server state.
func newHTTPServer(cfg *daemonConfig, h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: cfg.readHeaderTimeout,
		ReadTimeout:       cfg.readTimeout,
		WriteTimeout:      cfg.writeTimeout,
		IdleTimeout:       cfg.idleTimeout,
	}
}

// connStates records each connection's latest state for shutdown: the
// ConnState hook only records, and closeNew acts.
type connStates struct {
	mu    sync.Mutex
	conns map[net.Conn]http.ConnState
}

func (c *connStates) record(conn net.Conn, state http.ConnState) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if state == http.StateClosed || state == http.StateHijacked {
		delete(c.conns, conn)
		return
	}
	c.conns[conn] = state
}

// closeNew closes the connections that have not sent a request.
// http.Server.Shutdown counts such a connection as busy for its first
// 5 s, so one silent client would otherwise hold shutdown for the whole
// grace period.
func (c *connStates) closeNew() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for conn, state := range c.conns {
		if state == http.StateNew {
			conn.Close()
		}
	}
}

func run(ctx context.Context, args []string, stdout io.Writer) error {
	cfg, err := parseFlags(args)
	if err != nil {
		return err
	}

	st, err := loadInitialStore(cfg, stdout)
	if err != nil {
		return err
	}
	if err := offnetserve.SmokeValidate(st); err != nil {
		return fmt.Errorf("initial store failed validation: %w", err)
	}

	s := offnetserve.New(st, offnetserve.Config{
		Workers:         cfg.workers,
		QueueWait:       cfg.queueWait,
		CacheSize:       cfg.cacheSize,
		MaxBatch:        cfg.maxBatch,
		RequestTimeout:  cfg.timeout,
		BreakerFailures: cfg.breakerFailures,
		BreakerOpenFor:  cfg.breakerOpenFor,
	})
	if cfg.pprofOn {
		s.EnablePprof()
		fmt.Fprintln(stdout, "pprof enabled at /debug/pprof/")
	}
	srv := newHTTPServer(cfg, s)
	conns := &connStates{conns: make(map[net.Conn]http.ConnState)}
	srv.ConnState = conns.record
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "serving on http://%s (workers=%d timeout=%s queue-wait=%s cache=%d max-batch=%d)\n",
		ln.Addr(), cfg.workers, cfg.timeout, cfg.queueWait, cfg.cacheSize, cfg.maxBatch)

	// Hot reload: SIGHUP re-opens the store file. ReloadFile validates
	// the candidate — file integrity (magic, version, CRC) plus
	// structure and smoke queries — before the swap, so a half-written
	// or corrupt file can never reach serving traffic: the current
	// store stays live and /readyz reports the degradation instead.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	defer signal.Stop(hup)

	// Generation-log mode: a watcher goroutine follows the log and owns
	// every reload (offnetserve.Reload demands serialized callers, so
	// SIGHUP must not race it — it degrades to a logged no-op below).
	var outMu sync.Mutex
	if cfg.genlogDir != "" {
		wctx, wcancel := context.WithCancel(ctx)
		defer wcancel()
		go s.WatchGenLog(wctx, cfg.genlogDir, offnetserve.WatchConfig{
			Interval: cfg.watchInterval,
			OnReload: func(gen uint64, err error) {
				outMu.Lock()
				defer outMu.Unlock()
				if err != nil {
					fmt.Fprintf(stdout, "generation %d rejected, keeping current store: %v\n", gen, err)
					return
				}
				fmt.Fprintf(stdout, "reloaded generation %d (serving generation %d): %s\n",
					gen, s.Generation(), storeSummary(s.Store()))
			},
		})
		fmt.Fprintf(stdout, "watching generation log %s (interval %s)\n", cfg.genlogDir, cfg.watchInterval)
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	for {
		select {
		case err := <-errc:
			return err
		case <-hup:
			if cfg.genlogDir != "" {
				outMu.Lock()
				fmt.Fprintln(stdout, "SIGHUP ignored: the generation-log watcher owns reloads")
				outMu.Unlock()
				continue
			}
			if err := s.ReloadFile(cfg.storePath); err != nil {
				fmt.Fprintf(stdout, "reload failed, keeping current store: %v\n", err)
				continue
			}
			fmt.Fprintf(stdout, "reloaded %s (generation %d): %s\n", cfg.storePath, s.Generation(), storeSummary(s.Store()))
		case <-ctx.Done():
			fmt.Fprintln(stdout, "shutting down")
			shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			shut := make(chan error, 1)
			go func() { shut <- srv.Shutdown(shutCtx) }()
			// Serve returns once Shutdown has closed the listener, and
			// records every connection it accepted before it returns.
			// In-flight requests drain; silent connections are closed.
			<-errc
			conns.closeNew()
			return <-shut
		}
	}
}

// loadInitialStore picks the store the daemon boots with: the newest
// committed generation of -genlog when one exists, the -store file
// otherwise. An empty log with no -store bootstrap is a startup error —
// the daemon has nothing valid to serve, and /readyz must never be true
// over an empty view.
func loadInitialStore(cfg *daemonConfig, stdout io.Writer) (*footstore.Store, error) {
	if cfg.genlogDir != "" {
		base, next, err := footstore.PeekGenLog(cfg.genlogDir)
		if err != nil {
			return nil, fmt.Errorf("generation log %s: %w", cfg.genlogDir, err)
		}
		if next > base {
			st, err := footstore.LoadGeneration(cfg.genlogDir, next-1)
			if err != nil {
				return nil, fmt.Errorf("generation log %s: %w", cfg.genlogDir, err)
			}
			fmt.Fprintf(stdout, "loaded generation %d from %s: %s\n", next-1, cfg.genlogDir, storeSummary(st))
			return st, nil
		}
		if cfg.storePath == "" {
			return nil, fmt.Errorf("generation log %s is empty and no -store bootstrap was given", cfg.genlogDir)
		}
		fmt.Fprintf(stdout, "generation log %s is empty, bootstrapping from %s\n", cfg.genlogDir, cfg.storePath)
	}
	st, err := footstore.Open(cfg.storePath)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "loaded %s: %s\n", cfg.storePath, storeSummary(st))
	return st, nil
}

func storeSummary(st *footstore.Store) string {
	stats := st.Stats()
	return fmt.Sprintf("%d snapshots (latest %s), %d hypergiants, %d spans, %d prefixes",
		stats.Snapshots, st.Latest().Label(), stats.Hypergiants, stats.Spans, stats.Prefixes)
}
