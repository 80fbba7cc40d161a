package chaos

// HTTP-layer chaos: the network half of the fault-injection story. The
// byte-level Reader degrades what the pipeline *reads*; Transport and
// Proxy degrade what the serving stack *speaks* — latency spikes,
// connection resets, injected 5xx, truncated response bodies — so
// loadgen traffic can exercise a live daemon the way a hostile network
// would, reproducibly from one seed.
//
// Determinism under concurrency is the hard part: goroutine scheduling
// reorders requests run-to-run, so drawing faults from one shared
// stream would make every run different. Instead each request draws
// from a generator forked on (path, per-path occurrence index): the
// k-th GET /v1/snapshots sees the same faults in every run no matter
// how the scheduler interleaves it with other paths, and aggregate
// fault counts over a fixed request multiset are schedule-independent.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"offnetscope/internal/rng"
)

// FaultHeader marks responses whose fault was injected by this package
// (values: "injected-5xx", "truncated-body"), so offnetd's crash-only
// e2e can tell injected faults from genuine server errors.
const FaultHeader = "X-Chaos-Fault"

// HTTPConfig tunes the HTTP-layer injectors. The zero value injects
// nothing: a zero-config Transport or Proxy is a transparent relay.
type HTTPConfig struct {
	// Seed roots the deterministic fault stream.
	Seed uint64
	// LatencyProb is the per-request (Transport) or per-connection
	// (Proxy) probability of an added latency spike, uniform in
	// [0, MaxLatency).
	LatencyProb float64
	// MaxLatency bounds the spike. Zero means 50ms.
	MaxLatency time.Duration
	// ResetProb is the probability of a simulated connection reset:
	// Transport fails the request with ECONNRESET before it reaches the
	// server; Proxy hard-closes (RST) the client connection after
	// forwarding a random prefix of the response bytes.
	ResetProb float64
	// Inject5xxProb is the Transport-only probability of replacing a
	// successful response with a marked 502.
	Inject5xxProb float64
	// TruncateProb is the Transport-only probability that the response
	// body is cut short mid-read (io.ErrUnexpectedEOF), Content-Length
	// intact — the shape of a torn response.
	TruncateProb float64
}

func (c HTTPConfig) maxLatency() time.Duration {
	if c.MaxLatency <= 0 {
		return 50 * time.Millisecond
	}
	return c.MaxLatency
}

// FaultCounts totals the faults an injector actually fired. With a
// fixed seed and a fixed request multiset the totals are reproducible
// run-to-run, which is what lets offnetd's crash-only e2e match them
// exactly against what its driver saw.
type FaultCounts struct {
	LatencySpikes   uint64 `json:"latency_spikes"`
	Resets          uint64 `json:"resets"`
	Injected5xx     uint64 `json:"injected_5xx"`
	TruncatedBodies uint64 `json:"truncated_bodies"`
}

// Transport is a fault-injecting http.RoundTripper. Wrap a client's
// transport with it and every request runs the seeded fault gauntlet
// before (reset, latency) and after (5xx, truncation) the real round
// trip. Safe for concurrent use.
type Transport struct {
	cfg  HTTPConfig
	base http.RoundTripper
	root *rng.RNG

	mu  sync.Mutex
	seq map[string]uint64 // per-path occurrence counter

	latencySpikes, resets        atomic.Uint64
	injected5xx, truncatedBodies atomic.Uint64
}

// NewTransport wraps base (nil: http.DefaultTransport) with the
// configured fault injector.
func NewTransport(base http.RoundTripper, cfg HTTPConfig) *Transport {
	if base == nil {
		base = http.DefaultTransport
	}
	return &Transport{
		cfg:  cfg,
		base: base,
		root: rng.New(cfg.Seed),
		seq:  make(map[string]uint64),
	}
}

// CloseIdleConnections forwards to the base transport when it has the
// method. Without this, http.Client.CloseIdleConnections() silently
// does nothing through a chaos wrapper — the client type-asserts its
// transport for exactly this method.
func (t *Transport) CloseIdleConnections() {
	if ci, ok := t.base.(interface{ CloseIdleConnections() }); ok {
		ci.CloseIdleConnections()
	}
}

// Counts returns the faults fired so far.
func (t *Transport) Counts() FaultCounts {
	return FaultCounts{
		LatencySpikes:   t.latencySpikes.Load(),
		Resets:          t.resets.Load(),
		Injected5xx:     t.injected5xx.Load(),
		TruncatedBodies: t.truncatedBodies.Load(),
	}
}

// RoundTrip implements http.RoundTripper.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	path := req.URL.Path
	t.mu.Lock()
	seq := t.seq[path]
	t.seq[path] = seq + 1
	t.mu.Unlock()
	// Fork is independent of parent consumption, so concurrent requests
	// drawing from siblings never perturb each other's streams.
	g := t.root.Fork("http:" + path + "#" + strconv.FormatUint(seq, 10))

	// Draw every decision up front, in a fixed order, so one fault
	// class's probability never shifts another's stream position.
	var spike time.Duration
	if t.cfg.LatencyProb > 0 && g.Bool(t.cfg.LatencyProb) {
		spike = time.Duration(g.Int63n(int64(t.cfg.maxLatency())))
	}
	reset := t.cfg.ResetProb > 0 && g.Bool(t.cfg.ResetProb)
	inject := t.cfg.Inject5xxProb > 0 && g.Bool(t.cfg.Inject5xxProb)
	truncate := t.cfg.TruncateProb > 0 && g.Bool(t.cfg.TruncateProb)

	if spike > 0 {
		t.latencySpikes.Add(1)
		select {
		case <-time.After(spike):
		case <-req.Context().Done():
			return nil, req.Context().Err()
		}
	}
	if reset {
		t.resets.Add(1)
		return nil, fmt.Errorf("chaos: injected reset: %w", syscall.ECONNRESET)
	}
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	if inject {
		resp.Body.Close()
		body := []byte(`{"error":"chaos: injected upstream failure"}`)
		hdr := make(http.Header)
		hdr.Set("Content-Type", "application/json")
		hdr.Set(FaultHeader, "injected-5xx")
		t.injected5xx.Add(1)
		return &http.Response{
			Status:        "502 Bad Gateway",
			StatusCode:    http.StatusBadGateway,
			Proto:         resp.Proto,
			ProtoMajor:    resp.ProtoMajor,
			ProtoMinor:    resp.ProtoMinor,
			Header:        hdr,
			Body:          io.NopCloser(bytes.NewReader(body)),
			ContentLength: int64(len(body)),
			Request:       req,
		}, nil
	}
	if truncate {
		// Deliver a prefix then fail the read: Content-Length stays, so
		// the client observes a torn body, not a short-but-clean one.
		keep := int64(16)
		if resp.ContentLength > 1 {
			keep = resp.ContentLength / 2
		}
		resp.Header.Set(FaultHeader, "truncated-body")
		t.truncatedBodies.Add(1)
		resp.Body = &truncatedBody{rc: resp.Body, remain: keep}
	}
	return resp, nil
}

// truncatedBody delivers remain bytes then reports the torn-connection
// error a real mid-body reset produces.
type truncatedBody struct {
	rc     io.ReadCloser
	remain int64
}

func (b *truncatedBody) Read(p []byte) (int, error) {
	if b.remain <= 0 {
		return 0, io.ErrUnexpectedEOF
	}
	if int64(len(p)) > b.remain {
		p = p[:b.remain]
	}
	n, err := b.rc.Read(p)
	b.remain -= int64(n)
	if err == nil && b.remain <= 0 {
		err = io.ErrUnexpectedEOF
	}
	return n, err
}

func (b *truncatedBody) Close() error { return b.rc.Close() }

// Proxy is a fault-injecting TCP relay in front of a backend address:
// the listener-level complement to Transport, for faults that must
// happen on the wire (mid-response RST, connect-time latency) rather
// than inside the client process. Connections are keyed by accept
// order, so a sequential client sees a reproducible fault schedule.
type Proxy struct {
	cfg     HTTPConfig
	backend string
	ln      net.Listener
	root    *rng.RNG

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool

	wg      sync.WaitGroup
	connSeq atomic.Uint64

	latencySpikes, resets atomic.Uint64
}

// NewProxy listens on a fresh loopback port and relays every accepted
// connection to backend with the configured faults.
func NewProxy(backend string, cfg HTTPConfig) (*Proxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &Proxy{
		cfg:     cfg,
		backend: backend,
		ln:      ln,
		root:    rng.New(cfg.Seed),
		conns:   make(map[net.Conn]struct{}),
	}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr returns the proxy's listen address (dial this instead of the
// backend).
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// Counts returns the faults fired so far.
func (p *Proxy) Counts() FaultCounts {
	return FaultCounts{
		LatencySpikes: p.latencySpikes.Load(),
		Resets:        p.resets.Load(),
	}
}

// Close stops accepting, severs every live relay, and waits for the
// relay goroutines to drain.
func (p *Proxy) Close() error {
	p.mu.Lock()
	p.closed = true
	for c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
	err := p.ln.Close()
	p.wg.Wait()
	return err
}

func (p *Proxy) track(c net.Conn) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return false
	}
	p.conns[c] = struct{}{}
	return true
}

func (p *Proxy) untrack(c net.Conn) {
	p.mu.Lock()
	delete(p.conns, c)
	p.mu.Unlock()
}

func (p *Proxy) acceptLoop() {
	defer p.wg.Done()
	for {
		client, err := p.ln.Accept()
		if err != nil {
			// Only a closed listener ends the loop. Anything else
			// (EMFILE under connection churn, ECONNABORTED) is transient:
			// giving up would leave the listener open, and the kernel
			// keeps completing handshakes into the backlog — a silent
			// black hole where clients wait forever.
			p.mu.Lock()
			closed := p.closed
			p.mu.Unlock()
			if closed || errors.Is(err, net.ErrClosed) {
				return
			}
			time.Sleep(5 * time.Millisecond)
			continue
		}
		seq := p.connSeq.Add(1) - 1
		p.wg.Add(1)
		go p.relay(client, seq)
	}
}

func (p *Proxy) relay(client net.Conn, seq uint64) {
	defer p.wg.Done()
	defer client.Close()
	if !p.track(client) {
		return
	}
	defer p.untrack(client)

	g := p.root.Fork("proxy#" + strconv.FormatUint(seq, 10))
	var spike time.Duration
	if p.cfg.LatencyProb > 0 && g.Bool(p.cfg.LatencyProb) {
		spike = time.Duration(g.Int63n(int64(p.cfg.maxLatency())))
	}
	resetAfter := int64(-1)
	if p.cfg.ResetProb > 0 && g.Bool(p.cfg.ResetProb) {
		resetAfter = g.Int63n(2048)
	}

	backend, err := net.Dial("tcp", p.backend)
	if err != nil {
		return
	}
	defer backend.Close()
	if !p.track(backend) {
		return
	}
	defer p.untrack(backend)

	if spike > 0 {
		p.latencySpikes.Add(1)
		time.Sleep(spike)
	}

	// Upstream copy runs aside; it unblocks when either side closes,
	// which the deferred Closes above guarantee on every exit path.
	// The client's FIN is propagated with CloseWrite so the backend
	// tears its side down immediately instead of idling until its own
	// timeout — otherwise every churned client connection pins two
	// proxy file descriptors for the backend's full idle window, and a
	// busy run exhausts the fd limit.
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		io.Copy(backend, client) //nolint:errcheck — severed on purpose
		if tc, ok := backend.(*net.TCPConn); ok {
			tc.CloseWrite() //nolint:errcheck — best effort
		}
	}()

	if resetAfter >= 0 {
		io.CopyN(client, backend, resetAfter) //nolint:errcheck — partial on purpose
		p.resets.Add(1)
		// SetLinger(0) turns the close into a genuine RST on the wire,
		// so the client sees ECONNRESET, not a clean FIN.
		if tc, ok := client.(*net.TCPConn); ok {
			tc.SetLinger(0) //nolint:errcheck — best effort
		}
		return
	}
	io.Copy(client, backend) //nolint:errcheck — relay ends with either side
}
