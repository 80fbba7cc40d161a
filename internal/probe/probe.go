// Package probe is the live-network scanner: a concurrent TLS
// certificate fetcher (the certigo role) and an HTTP(S) banner grabber
// with explicit SNI/Host (the ZGrab2 role), built on crypto/tls and
// net/http with a worker pool, a token-bucket rate limiter, per-dial
// timeouts, and context cancellation — the ethics-conscious scanning
// practices §5 describes. It only collects: chains are captured
// unverified, and every §4 decision about them is made by the
// inference engine (internal/core) the caller feeds them to.
package probe

import (
	"context"
	"crypto/tls"
	"crypto/x509"
	"errors"
	"net"
	"net/http"
	"sync"
	"time"

	"offnetscope/internal/hg"
	"offnetscope/internal/obs"
	"offnetscope/internal/resilience"
)

// Config tunes the scanner.
type Config struct {
	// Concurrency is the worker-pool size. Zero means 16.
	Concurrency int
	// Timeout bounds each dial+handshake. Zero means 5s.
	Timeout time.Duration
	// RatePerSecond caps probe launches; zero means unlimited. Slow
	// scans trigger less rate limiting on the remote side — the reason
	// the authors' four-day scan saw more hosts than Rapid7's.
	RatePerSecond int
	// Retries re-attempts failed dials/handshakes with capped
	// exponential backoff and full jitter (internal/resilience);
	// transient loss is the main reason fast scans under-count (§5).
	Retries int
	// RetryBackoff is the base backoff delay; successive attempts
	// double it up to 10x, each sleep jittered uniformly below the
	// ceiling. Zero means 100ms.
	RetryBackoff time.Duration
	// BreakerFailures, when > 0, arms a per-target circuit breaker:
	// after that many consecutive exhausted probe attempts against one
	// address, further probes to it fail fast with
	// resilience.ErrBreakerOpen for BreakerOpenFor instead of burning a
	// full dial-timeout × retry budget per touch on a dead host — on a
	// four-day scan, dead hosts are the common case, not the exception.
	// Zero disables breakers.
	BreakerFailures int
	// BreakerOpenFor is the fail-fast window per tripped target. Zero
	// means 30s.
	BreakerOpenFor time.Duration
	// BreakerNow is the breaker clock hook, for deterministic tests.
	// Nil means time.Now.
	BreakerNow func() time.Time
	// Metrics receives probe accounting (probe.certs, probe.headers,
	// probe.errors, probe.breaker_fastfail). Nil discards.
	Metrics *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.Concurrency <= 0 {
		c.Concurrency = 16
	}
	if c.Timeout <= 0 {
		c.Timeout = 5 * time.Second
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 100 * time.Millisecond
	}
	if c.BreakerOpenFor <= 0 {
		c.BreakerOpenFor = 30 * time.Second
	}
	return c
}

// Scanner runs concurrent probes.
type Scanner struct {
	cfg     Config
	limiter *rateLimiter

	// breakers holds one circuit breaker per probed address, created
	// lazily on first touch (nil map when disabled). One breaker per
	// target, not one global: a dead host must not stop the scan of a
	// healthy one.
	bmu      sync.Mutex
	breakers map[string]*resilience.Breaker
}

// New builds a scanner.
func New(cfg Config) *Scanner {
	cfg = cfg.withDefaults()
	s := &Scanner{cfg: cfg}
	if cfg.RatePerSecond > 0 {
		s.limiter = newRateLimiter(cfg.RatePerSecond)
	}
	if cfg.BreakerFailures > 0 {
		s.breakers = make(map[string]*resilience.Breaker)
	}
	return s
}

// breakerFor returns the target's breaker, creating it on first use,
// or nil when breakers are disabled.
func (s *Scanner) breakerFor(addr string) *resilience.Breaker {
	if s.breakers == nil {
		return nil
	}
	s.bmu.Lock()
	defer s.bmu.Unlock()
	b, ok := s.breakers[addr]
	if !ok {
		b = resilience.NewBreaker(resilience.BreakerPolicy{
			ConsecutiveFailures: s.cfg.BreakerFailures,
			OpenFor:             s.cfg.BreakerOpenFor,
			Name:                "probe",
			Now:                 s.cfg.BreakerNow,
		})
		s.breakers[addr] = b
	}
	return b
}

// withBreaker runs op under the target's breaker (or directly when
// disabled). One op is one fully-retried probe: the breaker counts
// exhausted retry budgets, not individual attempts, so BreakerFailures
// means "this many probes in a row found the target dead".
func (s *Scanner) withBreaker(addr string, op func() error) error {
	b := s.breakerFor(addr)
	if b == nil {
		return op()
	}
	return b.Do(op)
}

// CertResult is one fetched default certificate.
type CertResult struct {
	Addr string
	// Chain is the presented chain, leaf first. Nil when the handshake
	// failed (including SNI-only servers probed without a name).
	Chain []*x509.Certificate
	Err   error
}

// FetchCerts grabs the default certificate (no SNI) from every address,
// certigo-style. Results are returned in input order; an address the
// sweep never reached before ctx ended carries ctx's error.
func (s *Scanner) FetchCerts(ctx context.Context, addrs []string) []CertResult {
	results := make([]CertResult, len(addrs))
	s.fanOut(ctx, len(addrs), func(i int) {
		results[i] = s.fetchCertRetry(ctx, addrs[i], "")
	}, func(i int, err error) {
		results[i] = CertResult{Addr: addrs[i], Err: err}
	})
	return results
}

// fetchCertRetry wraps fetchCert with the configured retry policy:
// every handshake failure is presumed transient (resilience's default
// classification) because under-counting hosts costs more than a
// wasted retry.
func (s *Scanner) fetchCertRetry(ctx context.Context, addr, serverName string) CertResult {
	res := CertResult{Addr: addr}
	err := s.withBreaker(addr, func() error {
		return resilience.Retry(ctx, resilience.Policy{
			MaxAttempts: s.cfg.Retries + 1,
			BaseDelay:   s.cfg.RetryBackoff,
			MaxDelay:    10 * s.cfg.RetryBackoff,
		}, func(ctx context.Context) error {
			res = s.fetchCert(ctx, addr, serverName)
			return res.Err
		})
	})
	if err != nil && res.Err == nil {
		// The breaker rejected without probing, or the context died
		// before the first attempt ran.
		res.Err = err
	}
	s.cfg.Metrics.Counter("probe.certs").Inc()
	if res.Err != nil {
		s.cfg.Metrics.Counter("probe.errors").Inc()
		if errors.Is(res.Err, resilience.ErrBreakerOpen) {
			s.cfg.Metrics.Counter("probe.breaker_fastfail").Inc()
		}
	}
	return res
}

// FetchCertSNI grabs the certificate presented for one explicit SNI.
func (s *Scanner) FetchCertSNI(ctx context.Context, addr, serverName string) CertResult {
	if err := s.wait(ctx); err != nil {
		return CertResult{Addr: addr, Err: err}
	}
	return s.fetchCertRetry(ctx, addr, serverName)
}

func (s *Scanner) fetchCert(ctx context.Context, addr, serverName string) CertResult {
	res := CertResult{Addr: addr}
	dialer := &net.Dialer{Timeout: s.cfg.Timeout}
	dctx, cancel := context.WithTimeout(ctx, s.cfg.Timeout)
	defer cancel()
	rawConn, err := dialer.DialContext(dctx, "tcp", addr)
	if err != nil {
		res.Err = err
		return res
	}
	defer rawConn.Close()
	if deadline, ok := dctx.Deadline(); ok {
		rawConn.SetDeadline(deadline) //nolint:errcheck — best effort
	}
	conn := tls.Client(rawConn, &tls.Config{
		ServerName:         serverName,
		InsecureSkipVerify: true, // capture the chain; §4.1 judges it later
	})
	if err := conn.HandshakeContext(dctx); err != nil {
		res.Err = err
		return res
	}
	res.Chain = conn.ConnectionState().PeerCertificates
	return res
}

// HeaderResult is one banner grab.
type HeaderResult struct {
	Addr    string
	Headers []hg.Header
	Status  int
	Err     error
}

// FetchHeaders performs GET / against every address (https when tlsMode,
// else plain http), recording response headers ZGrab2-style. host sets
// both SNI and the Host header when non-empty. Results are returned in
// input order; an address never reached before ctx ended carries ctx's
// error.
func (s *Scanner) FetchHeaders(ctx context.Context, addrs []string, host string, tlsMode bool) []HeaderResult {
	results := make([]HeaderResult, len(addrs))
	s.fanOut(ctx, len(addrs), func(i int) {
		results[i] = s.fetchHeadersBreaker(ctx, addrs[i], host, tlsMode)
	}, func(i int, err error) {
		results[i] = HeaderResult{Addr: addrs[i], Err: err}
	})
	return results
}

// fetchHeadersBreaker runs one banner grab under the target's breaker.
func (s *Scanner) fetchHeadersBreaker(ctx context.Context, addr, host string, tlsMode bool) HeaderResult {
	res := HeaderResult{Addr: addr}
	err := s.withBreaker(addr, func() error {
		res = s.fetchHeaders(ctx, addr, host, tlsMode)
		return res.Err
	})
	if err != nil && res.Err == nil {
		res.Err = err // breaker rejected without probing
	}
	s.cfg.Metrics.Counter("probe.headers").Inc()
	if res.Err != nil {
		s.cfg.Metrics.Counter("probe.errors").Inc()
		if errors.Is(res.Err, resilience.ErrBreakerOpen) {
			s.cfg.Metrics.Counter("probe.breaker_fastfail").Inc()
		}
	}
	return res
}

func (s *Scanner) fetchHeaders(ctx context.Context, addr, host string, tlsMode bool) HeaderResult {
	res := HeaderResult{Addr: addr}
	transport := &http.Transport{
		DialContext:       (&net.Dialer{Timeout: s.cfg.Timeout}).DialContext,
		DisableKeepAlives: true,
	}
	scheme := "http"
	if tlsMode {
		scheme = "https"
		transport.TLSClientConfig = &tls.Config{ServerName: host, InsecureSkipVerify: true}
	}
	client := &http.Client{Transport: transport, Timeout: s.cfg.Timeout}
	defer transport.CloseIdleConnections()

	req, err := http.NewRequestWithContext(ctx, http.MethodGet, scheme+"://"+addr+"/", nil)
	if err != nil {
		res.Err = err
		return res
	}
	if host != "" {
		req.Host = host
	}
	resp, err := client.Do(req)
	if err != nil {
		res.Err = err
		return res
	}
	defer resp.Body.Close()
	res.Status = resp.StatusCode
	for name, values := range resp.Header {
		for _, v := range values {
			res.Headers = append(res.Headers, hg.Header{Name: name, Value: v})
		}
	}
	return res
}

// fanOut runs n jobs across the worker pool, respecting the rate limiter
// and context cancellation. Every index reaches exactly one of job and
// skip: a job the rate limiter did not admit before ctx ended is
// skipped with ctx's error, so a sweep cut short still accounts for
// every target instead of leaving zero results behind.
func (s *Scanner) fanOut(ctx context.Context, n int, job func(int), skip func(int, error)) {
	jobs := make(chan int)
	var wg sync.WaitGroup
	workers := s.cfg.Concurrency
	if workers > n {
		workers = n
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				if err := s.wait(ctx); err != nil {
					skip(i, err)
					continue
				}
				job(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
}

// wait blocks until the rate limiter grants a token or ctx ends.
func (s *Scanner) wait(ctx context.Context) error {
	if s.limiter == nil {
		return ctx.Err()
	}
	return s.limiter.wait(ctx)
}

// rateLimiter is a token bucket refilled on a ticker; stdlib only.
type rateLimiter struct {
	tokens chan struct{}
	stop   chan struct{}
	once   sync.Once
}

func newRateLimiter(perSecond int) *rateLimiter {
	rl := &rateLimiter{
		tokens: make(chan struct{}, perSecond),
		stop:   make(chan struct{}),
	}
	// Pre-fill one burst.
	for i := 0; i < perSecond; i++ {
		rl.tokens <- struct{}{}
	}
	interval := time.Second / time.Duration(perSecond)
	if interval <= 0 {
		interval = time.Millisecond
	}
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				select {
				case rl.tokens <- struct{}{}:
				default:
				}
			case <-rl.stop:
				return
			}
		}
	}()
	return rl
}

func (rl *rateLimiter) wait(ctx context.Context) error {
	select {
	case <-rl.tokens:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close releases the limiter's refill goroutine.
func (s *Scanner) Close() {
	if s.limiter != nil {
		s.limiter.once.Do(func() { close(s.limiter.stop) })
	}
}
