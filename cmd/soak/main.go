// Command soak is the crash-only acceptance harness: it assembles the
// production serving stack in-process (real socket, real http.Server
// timeouts, breaker, validated SIGHUP reloads), routes seeded loadgen
// traffic through the chaos layer (fault-injecting transport plus a
// TCP proxy), drives continuous SIGHUP reloads alternating good and
// deliberately corrupted store files, and emits a deterministic JSON
// SLO report. The run passes when
//
//   - zero responses were served from a generation that was never
//     validated-and-committed (no stale or torn store views),
//   - zero torn response bodies slipped through as completed responses
//     (a truncated body must surface as a transport error, never as a
//     parseable answer),
//   - every 5xx carried the chaos marker header — the daemon itself
//     produced none,
//   - every good reload was accepted and every corrupt one rejected,
//   - p99 latency stayed under budget and the goroutine count came
//     back to baseline after shutdown.
//
// Everything above the "timing" section of the report is a pure
// function of the seed: two runs with the same flags produce
// byte-identical deterministic sections (the trace hash proves the
// workload matched; the chaos fault counts are keyed on per-path
// request sequence, not wall clock). `make soak-smoke` runs a short
// seeded soak under -race in CI; `make soak` is the full pre-release
// gate. The continuous-measurement daemon's kill-anytime gate is not
// here: cmd/offnetwatchd's kill suite SIGKILLs the real daemon.
//
// Usage:
//
//	soak [-seed 1] [-requests 5000] [-rate 1200] [-reloads 6]
//	     [-concurrency 8] [-reset-prob 0.02] [-truncate-prob 0.02]
//	     [-inject-5xx-prob 0.02] [-latency-prob 0.05]
//	     [-p99-budget 2s] [-out report.json]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"sync"
	"syscall"
	"time"

	"offnetscope/internal/astopo"
	"offnetscope/internal/chaos"
	"offnetscope/internal/footstore"
	"offnetscope/internal/hg"
	"offnetscope/internal/loadgen"
	"offnetscope/internal/netmodel"
	"offnetscope/internal/offnetserve"
	"offnetscope/internal/rng"
	"offnetscope/internal/timeline"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("soak: ")
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		log.Fatal(err)
	}
}

// soakConfig is the parsed flag set.
type soakConfig struct {
	seed        int64
	requests    int
	rate        float64
	reloads     int
	concurrency int
	workers     int
	cacheSize   int

	resetProb   float64
	truncProb   float64
	injectProb  float64
	latencyProb float64

	p99Budget      time.Duration
	goroutineSlack int
	outPath        string
}

func parseFlags(args []string) (*soakConfig, error) {
	cfg := &soakConfig{}
	fs := flag.NewFlagSet("soak", flag.ContinueOnError)
	fs.Int64Var(&cfg.seed, "seed", 1, "root seed: store, workload, and chaos streams all derive from it")
	fs.IntVar(&cfg.requests, "requests", 5000, "loadgen requests to schedule")
	fs.Float64Var(&cfg.rate, "rate", 1200, "open-loop arrival rate in req/s, so reloads land mid-traffic (0 = unpaced)")
	fs.IntVar(&cfg.reloads, "reloads", 6, "SIGHUP reloads during the run, alternating good/corrupt store files")
	fs.IntVar(&cfg.concurrency, "concurrency", 8, "loadgen in-flight request bound")
	fs.IntVar(&cfg.workers, "workers", 64, "daemon worker-pool size")
	fs.IntVar(&cfg.cacheSize, "cache", 512, "daemon query-cache entries")
	fs.Float64Var(&cfg.resetProb, "reset-prob", 0.02, "chaos transport: connection-reset probability")
	fs.Float64Var(&cfg.truncProb, "truncate-prob", 0.02, "chaos transport: truncated-body probability")
	fs.Float64Var(&cfg.injectProb, "inject-5xx-prob", 0.02, "chaos transport: injected-502 probability")
	fs.Float64Var(&cfg.latencyProb, "latency-prob", 0.05, "chaos proxy: per-connection latency-spike probability")
	fs.DurationVar(&cfg.p99Budget, "p99-budget", 2*time.Second, "SLO: p99 latency bound (0 skips the check)")
	fs.IntVar(&cfg.goroutineSlack, "goroutine-slack", 16, "SLO: allowed goroutine growth after shutdown")
	fs.StringVar(&cfg.outPath, "out", "", "write the JSON report here (default stdout)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if cfg.reloads < 0 {
		return nil, fmt.Errorf("-reloads must be >= 0")
	}
	return cfg, nil
}

// Report is the soak run's SLO verdict. Every field outside Timing is
// deterministic for a fixed flag set: compare two runs after zeroing
// Timing and the bytes must match.
type Report struct {
	Seed      int64  `json:"seed"`
	TraceHash string `json:"trace_hash"`
	Requests  int    `json:"requests"`

	ByStatus         map[string]int    `json:"by_status"`
	TransportByClass map[string]int    `json:"transport_by_class"`
	InjectedFaults   chaos.FaultCounts `json:"injected_faults"`

	Injected5xxSeen int `json:"injected_5xx_seen"`
	Genuine5xx      int `json:"genuine_5xx"`

	ReloadsAccepted int `json:"reloads_accepted"`
	ReloadsRejected int `json:"reloads_rejected"`

	StaleGenerations int `json:"stale_generations"`
	TornResponses    int `json:"torn_responses"`

	Violations []string `json:"violations"`
	Pass       bool     `json:"pass"`

	Timing Timing `json:"timing"`
}

// Timing holds everything wall-clock-dependent — stripped before any
// determinism comparison. The reload-validate quantiles come from the
// daemon's own reload.validate_ns histogram: how long each SIGHUP
// candidate spent in open+validate before its verdict, the number an
// operator graphs to catch validation creeping onto the serving path.
type Timing struct {
	DurationNs          int64             `json:"duration_ns"`
	P50Ns               int64             `json:"p50_ns"`
	P99Ns               int64             `json:"p99_ns"`
	ReloadValidateP50Ns int64             `json:"reload_validate_p50_ns"`
	ReloadValidateP99Ns int64             `json:"reload_validate_p99_ns"`
	GoroutinesBefore    int               `json:"goroutines_before"`
	GoroutinesAfter     int               `json:"goroutines_after"`
	ProxyFaults         chaos.FaultCounts `json:"proxy_faults"`
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	cfg, err := parseFlags(args)
	if err != nil {
		return err
	}
	rep, err := soak(ctx, cfg, stderr)
	if err != nil {
		return err
	}
	out := stdout
	if cfg.outPath != "" {
		f, err := os.Create(cfg.outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		return err
	}
	if !rep.Pass {
		return fmt.Errorf("SLO violated: %v", rep.Violations)
	}
	return nil
}

// soak executes one full run and scores it. The daemon, the chaos
// layers, and the reload driver all live in this process so the
// harness can read committed-generation truth and registry counters
// directly instead of scraping output.
func soak(ctx context.Context, cfg *soakConfig, stderr io.Writer) (*Report, error) {
	goroutinesBefore := runtime.NumGoroutine()

	dir, err := os.MkdirTemp("", "soak-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	storePath := dir + "/store.fst"

	st := buildStore(uint64(cfg.seed))
	if err := st.Save(storePath); err != nil {
		return nil, err
	}
	goodBytes := st.Encode()

	srv := offnetserve.New(st, offnetserve.Config{
		Workers:         cfg.workers,
		CacheSize:       cfg.cacheSize,
		RequestTimeout:  10 * time.Second,
		BreakerFailures: 32,
		BreakerOpenFor:  time.Second,
	})
	hs := &http.Server{
		Handler:           srv,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       60 * time.Second,
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	// SIGHUP → validated reload, exactly the offnetd wiring. The
	// harness sends the signals to itself; a corrupt candidate must be
	// rejected with the old generation still serving.
	hup := make(chan os.Signal, 8)
	signal.Notify(hup, syscall.SIGHUP)
	defer signal.Stop(hup)
	var hupWG sync.WaitGroup
	hupWG.Add(1)
	go func() {
		defer hupWG.Done()
		for range hup {
			if err := srv.ReloadFile(storePath); err != nil {
				fmt.Fprintf(stderr, "reload failed, keeping current store: %v\n", err)
			}
		}
	}()

	proxy, err := chaos.NewProxy(ln.Addr().String(), chaos.HTTPConfig{
		Seed:        uint64(cfg.seed) + 1,
		LatencyProb: cfg.latencyProb,
	})
	if err != nil {
		return nil, err
	}
	// A dedicated base transport, not the shared http.DefaultTransport:
	// the idle pool is sized to the worker count so keep-alive reuse
	// actually happens (the default per-host cap of 2 would churn a new
	// connection pair through the proxy for most requests), and closing
	// idle connections at teardown can't disturb anyone else.
	base := &http.Transport{
		MaxIdleConns:        cfg.concurrency * 2,
		MaxIdleConnsPerHost: cfg.concurrency,
		IdleConnTimeout:     30 * time.Second,
	}
	tr := chaos.NewTransport(base, chaos.HTTPConfig{
		Seed:          uint64(cfg.seed) + 2,
		ResetProb:     cfg.resetProb,
		TruncateProb:  cfg.truncProb,
		Inject5xxProb: cfg.injectProb,
	})
	client := &http.Client{Transport: tr, Timeout: 30 * time.Second}

	plan, err := loadgen.BuildPlan(st, loadgen.PlanConfig{
		Seed:     cfg.seed,
		Requests: cfg.requests,
		Rate:     cfg.rate,
	})
	if err != nil {
		return nil, err
	}

	// OnResponse audits every completed response: a 200 with an
	// unparseable body is a torn response (must be zero — truncation is
	// supposed to surface as a transport eof, never as a completed
	// answer), and the chaos marker header separates injected 5xx from
	// genuine daemon failures.
	var (
		mu           sync.Mutex
		torn         int
		injectedSeen int
		genuine5xx   int
		genCounts    = map[uint64]int{}
	)
	onResponse := func(req *loadgen.Request, status int, header http.Header, body []byte) {
		injected := header.Get(chaos.FaultHeader) == "injected-5xx"
		var gen struct {
			Generation uint64 `json:"generation"`
		}
		valid := json.Valid(body)
		if valid {
			_ = json.Unmarshal(body, &gen)
		}
		mu.Lock()
		defer mu.Unlock()
		switch {
		case status >= 500 && injected:
			injectedSeen++
		case status >= 500:
			genuine5xx++
		case status == http.StatusOK:
			if !valid {
				torn++
				return
			}
			if gen.Generation > 0 {
				genCounts[gen.Generation]++
			}
		}
	}

	driveDone := make(chan struct{})
	var drep *loadgen.Report
	var driveErr error
	go func() {
		defer close(driveDone)
		drep, driveErr = loadgen.Drive(ctx, plan, client, loadgen.Options{
			Concurrency: cfg.concurrency,
			BaseURL:     "http://" + proxy.Addr(),
			OnResponse:  onResponse,
		})
	}()

	// Reload driver: alternate good and corrupt store files under the
	// live traffic, confirming each reload's verdict through the
	// daemon's own counters before sending the next signal.
	wantAccepted, wantRejected := 0, 0
	reloadErr := func() error {
		for i := 0; i < cfg.reloads; i++ {
			data := goodBytes
			if i%2 == 1 {
				data = corruptVariant(goodBytes, i/2)
			}
			if err := os.WriteFile(storePath, data, 0o644); err != nil {
				return err
			}
			want := "reload.accepted"
			if i%2 == 1 {
				want = "reload.rejected"
				wantRejected++
			} else {
				wantAccepted++
			}
			before := srv.Registry().Snapshot().Counter(want)
			if err := syscall.Kill(os.Getpid(), syscall.SIGHUP); err != nil {
				return err
			}
			deadline := time.Now().Add(10 * time.Second)
			for srv.Registry().Snapshot().Counter(want) == before {
				if time.Now().After(deadline) {
					return fmt.Errorf("reload %d: %s never advanced", i, want)
				}
				if err := ctx.Err(); err != nil {
					return err
				}
				time.Sleep(2 * time.Millisecond)
			}
			time.Sleep(25 * time.Millisecond)
		}
		return nil
	}()
	<-driveDone
	if reloadErr != nil {
		return nil, reloadErr
	}
	if driveErr != nil {
		return nil, driveErr
	}

	// Tear down in order and let the goroutine count settle: leaked
	// handlers or proxy relays show up as a count that never returns
	// to baseline.
	// Client idle pool and proxy go first: a dial-raced connection the
	// client never used sits in StateNew on the daemon side, and
	// Shutdown would wait out its ReadHeaderTimeout otherwise.
	client.CloseIdleConnections()
	proxy.Close()
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil {
		return nil, err
	}
	<-serveErr
	signal.Stop(hup)
	close(hup)
	hupWG.Wait()

	goroutinesAfter := runtime.NumGoroutine()
	for end := time.Now().Add(3 * time.Second); time.Now().Before(end); {
		if goroutinesAfter <= goroutinesBefore+cfg.goroutineSlack {
			break
		}
		time.Sleep(20 * time.Millisecond)
		goroutinesAfter = runtime.NumGoroutine()
	}

	// Score. Committed generations are 1 (startup) through 1+accepted:
	// every accepted reload bumps by one, every rejected one must not.
	snap := srv.Registry().Snapshot()
	accepted := int(snap.Counter("reload.accepted"))
	rejected := int(snap.Counter("reload.rejected"))
	stale := 0
	for gen, n := range genCounts {
		if gen < 1 || gen > uint64(1+accepted) {
			stale += n
		}
	}

	rep := &Report{
		Seed:             cfg.seed,
		TraceHash:        drep.TraceHash,
		Requests:         drep.Requests,
		ByStatus:         drep.ByStatus,
		TransportByClass: drep.TransportByClass,
		InjectedFaults:   tr.Counts(),
		Injected5xxSeen:  injectedSeen,
		Genuine5xx:       genuine5xx,
		ReloadsAccepted:  accepted,
		ReloadsRejected:  rejected,
		StaleGenerations: stale,
		TornResponses:    torn,
		Violations:       []string{},
		Timing: Timing{
			DurationNs:          drep.DurationNs,
			P50Ns:               drep.P50Ns,
			P99Ns:               drep.P99Ns,
			ReloadValidateP50Ns: snap.Histograms["reload.validate_ns"].Quantile(0.50),
			ReloadValidateP99Ns: snap.Histograms["reload.validate_ns"].Quantile(0.99),
			GoroutinesBefore:    goroutinesBefore,
			GoroutinesAfter:     goroutinesAfter,
			ProxyFaults:         proxy.Counts(),
		},
	}
	if rep.TransportByClass == nil {
		rep.TransportByClass = map[string]int{}
	}
	if stale > 0 {
		rep.Violations = append(rep.Violations, "stale-generation")
	}
	if torn > 0 {
		rep.Violations = append(rep.Violations, "torn-response")
	}
	if genuine5xx > 0 {
		rep.Violations = append(rep.Violations, "genuine-5xx")
	}
	if accepted != wantAccepted || rejected != wantRejected {
		rep.Violations = append(rep.Violations, "reload-count-mismatch")
	}
	if cfg.p99Budget > 0 && drep.P99Ns > int64(cfg.p99Budget) {
		rep.Violations = append(rep.Violations, "p99-exceeded")
	}
	if goroutinesAfter > goroutinesBefore+cfg.goroutineSlack {
		rep.Violations = append(rep.Violations, "goroutine-leak")
	}
	rep.Pass = len(rep.Violations) == 0
	return rep, nil
}

// buildStore synthesizes the soak store as a pure function of the
// seed: four snapshots, eight hypergiants with drifting AS
// footprints, and a spread of /24 prefixes so the loadgen plan has
// real hot IPs to draw.
func buildStore(seed uint64) *footstore.Store {
	r := rng.New(seed).Fork("soak-store")
	labels := []string{"2020-07", "2020-10", "2021-01", "2021-04"}
	giants := []hg.ID{hg.Google, hg.Netflix, hg.Facebook, hg.Akamai,
		hg.Cloudflare, hg.Amazon, hg.Apple, hg.Fastly}

	b := footstore.NewBuilder()
	used := map[astopo.ASN]bool{}
	for si, label := range labels {
		snap, ok := timeline.FromLabel(label)
		if !ok {
			panic("soak: bad snapshot label " + label)
		}
		fp := make(map[hg.ID][]astopo.ASN, len(giants))
		for gi, id := range giants {
			base := astopo.ASN(100 * (gi + 1))
			ases := []astopo.ASN{base}
			// Footprints grow across the window, echoing the paper's
			// observed off-net expansion.
			for k := 0; k < 2+si+r.Intn(3); k++ {
				as := base + astopo.ASN(1+r.Intn(16))
				ases = append(ases, as)
			}
			fp[id] = ases
			for _, as := range ases {
				used[as] = true
			}
		}
		if err := b.AddSnapshot(snap, fp); err != nil {
			panic("soak: AddSnapshot: " + err.Error())
		}
	}
	ases := make([]astopo.ASN, 0, len(used))
	for as := range used {
		ases = append(ases, as)
	}
	// Deterministic prefix origins need a deterministic AS order.
	for i := 1; i < len(ases); i++ {
		for j := i; j > 0 && ases[j] < ases[j-1]; j-- {
			ases[j], ases[j-1] = ases[j-1], ases[j]
		}
	}
	for i := 0; i < 48; i++ {
		p := netmodel.MustParsePrefix(fmt.Sprintf("10.%d.%d.0/24", 1+i/8, (i%8)*32))
		b.AddPrefix(p, []astopo.ASN{ases[r.Intn(len(ases))]})
	}
	st, err := b.Build()
	if err != nil {
		panic("soak: store build: " + err.Error())
	}
	return st
}

// corruptVariant deterministically damages a good store image. The
// variants rotate: truncation (CRC gone), a clobbered magic, and
// garbage that is not a store at all.
func corruptVariant(good []byte, i int) []byte {
	switch i % 3 {
	case 0:
		return good[:len(good)/2]
	case 1:
		bad := append([]byte(nil), good...)
		copy(bad, "XXXX")
		return bad
	default:
		return []byte("not a footstore " + strconv.Itoa(i))
	}
}
