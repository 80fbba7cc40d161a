package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"

	"offnetscope/internal/obs"
)

// Target is anywhere the driver can send a request. *http.Client
// satisfies it for a live daemon over a socket; HandlerTarget satisfies
// it for an in-process offnetd server with zero network between the
// generator and the handler stack.
type Target interface {
	Do(*http.Request) (*http.Response, error)
}

// HandlerTarget drives an http.Handler directly — the production
// handler stack (worker pool, cache, shedding included) without a
// socket, which is what the committed benchmarks measure.
type HandlerTarget struct {
	Handler http.Handler
}

func (t HandlerTarget) Do(req *http.Request) (*http.Response, error) {
	rec := respRecorder{status: http.StatusOK, header: make(http.Header, 4)}
	t.Handler.ServeHTTP(&rec, req)
	return &http.Response{
		StatusCode: rec.status,
		Header:     rec.header,
		Body:       io.NopCloser(bytes.NewReader(rec.body.Bytes())),
	}, nil
}

// respRecorder is the driver's own minimal ResponseWriter; the httptest
// recorder is off-limits outside _test files.
type respRecorder struct {
	status int
	header http.Header
	body   bytes.Buffer
}

func (r *respRecorder) Header() http.Header         { return r.header }
func (r *respRecorder) WriteHeader(code int)        { r.status = code }
func (r *respRecorder) Write(p []byte) (int, error) { return r.body.Write(p) }

// Options tunes the driver, not the workload — everything here may
// change timing but never which requests are sent.
type Options struct {
	// Concurrency bounds in-flight requests (0: 32). With open-loop
	// pacing, a request whose scheduled time has passed waits only for
	// a free worker, so saturation shows up as schedule lag, not as a
	// silently reduced offered rate.
	Concurrency int

	// BaseURL prefixes every request path. Required for an *http.Client
	// target; ignored cosmetically by HandlerTarget (0: a placeholder
	// host).
	BaseURL string

	// Registry receives the driver's latency histogram and counters;
	// nil metrics are dropped (obs nop handles).
	Registry *obs.Registry

	// OnResponse, when set, observes every completed response after
	// accounting — the hook offnetd's crash-only e2e uses to
	// cross-check generation against content and (via the headers) to
	// separate chaos-injected faults from genuine ones. Called from
	// worker goroutines. Responses whose body read failed mid-stream
	// are counted as transport errors and never reach the hook.
	OnResponse func(req *Request, status int, header http.Header, body []byte)
}

// Report is the driver's deterministic-shape result. For an in-process
// run of a fixed plan, everything except wall-clock timing (Duration,
// QPS, latency quantiles) is identical run to run.
type Report struct {
	Seed      int64  `json:"seed"`
	TraceHash string `json:"trace_hash"`
	Requests  int    `json:"requests"`
	Lookups   int    `json:"lookups"`

	ByKind   map[string]int `json:"by_kind"`
	ByStatus map[string]int `json:"by_status"`

	Errors5xx int `json:"errors_5xx"`
	Shed429   int `json:"shed_429"`
	Transport int `json:"transport_errors"`

	// TransportByClass splits Transport into failure classes — reset,
	// timeout, eof (torn bodies included), refused, other — so
	// offnetd's crash-only e2e can match injected resets and torn
	// bodies exactly and tell them from, say, dial refusals that would
	// mean the daemon died. Keys sort in the JSON encoding, so the
	// report stays byte-deterministic.
	TransportByClass map[string]int `json:"transport_by_class,omitempty"`

	// Generations histograms the generation field of every 200-status
	// body that carried one — how many responses each store generation
	// answered during the run.
	Generations map[string]int `json:"generations,omitempty"`

	DurationNs    int64   `json:"duration_ns"`
	QPS           float64 `json:"qps"`
	LookupsPerSec float64 `json:"lookups_per_sec"`
	P50Ns         int64   `json:"p50_ns"`
	P99Ns         int64   `json:"p99_ns"`
	P999Ns        int64   `json:"p999_ns"`
}

// WriteJSON renders the report with sorted keys and stable field
// order, newline-terminated.
func (rep *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// Drive replays the plan against the target with bounded concurrency,
// honoring each request's open-loop arrival offset, and aggregates the
// result. The context aborts the run between requests.
func Drive(ctx context.Context, plan *Plan, target Target, opts Options) (*Report, error) {
	if target == nil {
		return nil, fmt.Errorf("loadgen: nil target")
	}
	conc := opts.Concurrency
	if conc <= 0 {
		conc = 32
	}
	base := opts.BaseURL
	if base == "" {
		base = "http://offnetd.invalid"
	}
	reg := opts.Registry
	if reg == nil {
		reg = obs.NewRegistry("loadgen")
	}
	lat := reg.Histogram("loadgen.latency")
	sent := reg.Counter("loadgen.sent")
	transport := reg.Counter("loadgen.transport_errors")

	var (
		mu        sync.Mutex
		byStatus  = make(map[string]int)
		gens      = make(map[string]int)
		transErrs = make(map[string]int)
		rep       = Report{
			Seed:      plan.Seed,
			TraceHash: plan.Hash(),
			Requests:  len(plan.Requests),
			Lookups:   plan.Lookups,
			ByKind:    plan.ByKind(),
			ByStatus:  byStatus,
		}
	)
	countTransport := func(err error) {
		class := classifyTransport(err)
		reg.Counter("loadgen.transport." + class).Inc()
		transport.Inc()
		mu.Lock()
		rep.Transport++
		transErrs[class]++
		mu.Unlock()
	}

	jobs := make(chan int)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				r := &plan.Requests[i]
				if r.At > 0 {
					if d := time.Until(start.Add(r.At)); d > 0 {
						select {
						case <-time.After(d):
						case <-ctx.Done():
							return
						}
					}
				}
				var body io.Reader
				if r.Body != nil {
					body = bytes.NewReader(r.Body)
				}
				req, err := http.NewRequestWithContext(ctx, r.Method, base+r.Path, body)
				if err != nil {
					panic(fmt.Sprintf("loadgen: plan produced an unbuildable request %q: %v", r.Path, err))
				}
				if r.Body != nil {
					req.Header.Set("Content-Type", "application/json")
				}
				issued := time.Now()
				resp, err := target.Do(req)
				sent.Inc()
				if err != nil {
					countTransport(err)
					continue
				}
				respBody, readErr := io.ReadAll(resp.Body)
				resp.Body.Close()
				if readErr != nil {
					// A torn body is a transport failure, not a served
					// response: the status line arrived but the answer
					// did not, so none of the response accounting runs.
					countTransport(readErr)
					continue
				}
				lat.Since(issued)

				mu.Lock()
				byStatus[strconv.Itoa(resp.StatusCode)]++
				switch {
				case resp.StatusCode >= 500:
					rep.Errors5xx++
				case resp.StatusCode == http.StatusTooManyRequests:
					rep.Shed429++
				}
				if resp.StatusCode == http.StatusOK {
					if g, ok := scanGeneration(respBody); ok {
						gens[strconv.FormatUint(g, 10)]++
					}
				}
				mu.Unlock()
				if opts.OnResponse != nil {
					opts.OnResponse(r, resp.StatusCode, resp.Header, respBody)
				}
			}
		}()
	}
feed:
	for i := range plan.Requests {
		select {
		case jobs <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(jobs)
	wg.Wait()
	elapsed := time.Since(start)
	if elapsed <= 0 {
		elapsed = time.Nanosecond
	}

	if len(gens) > 0 {
		rep.Generations = gens
	}
	if len(transErrs) > 0 {
		rep.TransportByClass = transErrs
	}
	rep.DurationNs = int64(elapsed)
	done := len(plan.Requests) - rep.Transport
	rep.QPS = float64(done) / elapsed.Seconds()
	rep.LookupsPerSec = float64(rep.Lookups) / elapsed.Seconds()
	hs := reg.Snapshot().Histograms["loadgen.latency"]
	sort.Slice(hs.Buckets, func(i, j int) bool { return hs.Buckets[i].Pow < hs.Buckets[j].Pow })
	rep.P50Ns = hs.Quantile(0.50)
	rep.P99Ns = hs.Quantile(0.99)
	rep.P999Ns = hs.Quantile(0.999)

	if err := ctx.Err(); err != nil {
		return &rep, fmt.Errorf("loadgen: run aborted: %w", err)
	}
	return &rep, nil
}

// classifyTransport buckets one transport failure. Sentinel checks run
// before the net.Error timeout interface check so a wrapped
// ECONNRESET that also happens to satisfy net.Error lands in "reset",
// the more specific bucket.
func classifyTransport(err error) string {
	switch {
	case errors.Is(err, syscall.ECONNRESET):
		return "reset"
	case errors.Is(err, syscall.ECONNREFUSED):
		return "refused"
	case errors.Is(err, context.DeadlineExceeded):
		return "timeout"
	case errors.Is(err, io.ErrUnexpectedEOF), errors.Is(err, io.EOF):
		return "eof"
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return "timeout"
	}
	return "other"
}

// scanGeneration pulls the top-level "generation" number out of a JSON
// body without a full decode — the driver reads every response body and
// a json.Unmarshal per response would dominate the measurement.
func scanGeneration(body []byte) (uint64, bool) {
	const key = `"generation":`
	i := bytes.Index(body, []byte(key))
	if i < 0 {
		return 0, false
	}
	j := i + len(key)
	for j < len(body) && (body[j] == ' ' || body[j] == '\t') {
		j++
	}
	k := j
	for k < len(body) && body[k] >= '0' && body[k] <= '9' {
		k++
	}
	if k == j {
		return 0, false
	}
	g, err := strconv.ParseUint(string(body[j:k]), 10, 64)
	return g, err == nil
}
