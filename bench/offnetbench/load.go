package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"offnetscope/internal/astopo"
	"offnetscope/internal/footstore"
	"offnetscope/internal/loadgen"
	"offnetscope/internal/netmodel"
)

// senders is how many goroutines of this process generate load, each
// on its own keep-alive connection: generation monotonicity is checked
// per connection, and two senders fit the two-core machine the
// benchmark is sized for.
const senders = 2

// spotEvery is the spot-check cadence: every spotEvery-th /v1/ip answer
// per connection is decoded and compared with footstore.LookupIP.
const spotEvery = 16

// lateAfter is how far past its due time an open-loop request may be
// sent before it counts as late; a rising late share means the offered
// rate is past what the driver and daemon can sustain together.
const lateAfter = time.Millisecond

// phase is what one load phase observed.
type phase struct {
	wall     time.Duration
	sent     int64
	failures map[string]int64
	lat      []time.Duration // per request, from its due time
	late     int64
}

func (ph *phase) failed() int64 {
	var n int64
	for _, c := range ph.failures {
		n += c
	}
	return n
}

func (ph *phase) merge(o *phase) {
	ph.sent += o.sent
	ph.late += o.late
	ph.lat = append(ph.lat, o.lat...)
	for k, v := range o.failures {
		ph.failures[k] += v
	}
}

// conn is one sender: a keep-alive HTTP/1.1 connection it writes
// requests to and reads answers from itself, and the checks that apply
// to those answers. net/http's client would cost the driver more CPU
// per request than offnetd spends answering, and on a two-core machine
// the driver's CPU would then bound the closed loop instead of offnetd.
type conn struct {
	checker
	addr string // host:port
	nc   net.Conn
	br   *bufio.Reader
	req  []byte // the request being sent, reused
	ph   phase
}

func newConn(addr string, st *footstore.Store, onGen func(uint64)) *conn {
	return &conn{
		checker: checker{st: st, onGen: onGen},
		addr:    addr,
		ph:      phase{failures: make(map[string]int64)},
	}
}

// requestTimeout bounds one round trip, so a wedged daemon fails the
// request instead of hanging the run.
const requestTimeout = 10 * time.Second

// send issues one planned request and checks the answer; due is when
// the request was scheduled, which is where its latency starts.
func (c *conn) send(r *loadgen.Request, due time.Time) {
	c.ph.sent++
	status, body, err := c.roundTrip(r)
	if err != nil {
		c.close()
		c.ph.failures["transport"]++
		return
	}
	c.ph.lat = append(c.ph.lat, time.Since(due))
	if why := c.check(r, status, body); why != "" {
		c.ph.failures[why]++
	}
}

// sendPipelined writes rs back to back on the connection in one write,
// then reads and checks their answers, which HTTP/1.1 returns in order.
// offnetd then always has the next request buffered, so the closed loop
// measures what it costs to answer rather than how fast two processes
// wake each other. A broken connection fails every unanswered request.
func (c *conn) sendPipelined(rs []loadgen.Request) {
	c.ph.sent += int64(len(rs))
	c.req = c.req[:0]
	for i := range rs {
		c.appendRequest(&rs[i])
	}
	if err := c.write(); err != nil {
		c.close()
		c.ph.failures["transport"] += int64(len(rs))
		return
	}
	for i := range rs {
		status, body, err := c.readAnswer()
		if err != nil {
			c.close()
			c.ph.failures["transport"] += int64(len(rs) - i)
			return
		}
		if why := c.check(&rs[i], status, body); why != "" {
			c.ph.failures[why]++
		}
	}
}

func (c *conn) roundTrip(r *loadgen.Request) (int, []byte, error) {
	c.req = c.req[:0]
	c.appendRequest(r)
	if err := c.write(); err != nil {
		return 0, nil, err
	}
	return c.readAnswer()
}

func (c *conn) appendRequest(r *loadgen.Request) {
	c.req = append(c.req, r.Method...)
	c.req = append(c.req, ' ')
	c.req = append(c.req, r.Path...)
	c.req = append(c.req, " HTTP/1.1\r\nHost: "...)
	c.req = append(c.req, c.addr...)
	if r.Body != nil {
		c.req = append(c.req, "\r\nContent-Type: application/json\r\nContent-Length: "...)
		c.req = strconv.AppendInt(c.req, int64(len(r.Body)), 10)
	}
	c.req = append(c.req, "\r\n\r\n"...)
	c.req = append(c.req, r.Body...)
}

// write sends c.req, dialling first if the connection is not open.
func (c *conn) write() error {
	if c.nc == nil {
		nc, err := net.Dial("tcp", c.addr)
		if err != nil {
			return err
		}
		c.nc, c.br = nc, bufio.NewReaderSize(nc, 64<<10)
	}
	if err := c.nc.SetDeadline(time.Now().Add(requestTimeout)); err != nil {
		return err
	}
	_, err := c.nc.Write(c.req)
	return err
}

// readAnswer reads the next response on the connection.
func (c *conn) readAnswer() (int, []byte, error) {
	if c.nc == nil {
		return 0, nil, errors.New("connection closed by the server")
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, nil, err
	}
	if resp.Close {
		c.close()
	}
	return resp.StatusCode, body, nil
}

func (c *conn) close() {
	if c.nc != nil {
		c.nc.Close()
		c.nc = nil
	}
}

// checker judges the answers one connection receives, in order.
type checker struct {
	st      *footstore.Store
	onGen   func(gen uint64) // sees every answered generation; may be nil
	lastGen uint64
	ips     int
}

// check returns "" for a right answer and the failure class otherwise:
// a 5xx or 429, a well-formed request not answered 200, a malformed one
// not answered 4xx, a 200 without a generation or whose generation went
// backwards on this connection, or a spot-checked /v1/ip answer that
// disagrees with the store.
func (c *checker) check(r *loadgen.Request, status int, body []byte) string {
	switch {
	case status == http.StatusTooManyRequests:
		return "shed_429"
	case status >= 500:
		return "server_" + strconv.Itoa(status)
	case r.Kind == loadgen.KindMalformed:
		if status >= 400 {
			return ""
		}
		return "malformed_answered_" + strconv.Itoa(status)
	case status != http.StatusOK:
		return "well_formed_answered_" + strconv.Itoa(status)
	}
	gen, ok := scanGeneration(body)
	if !ok {
		return "no_generation"
	}
	if gen < c.lastGen {
		return "generation_went_backwards"
	}
	c.lastGen = gen
	if c.onGen != nil {
		c.onGen(gen)
	}
	if r.Kind == loadgen.KindIPHot || r.Kind == loadgen.KindIPCold {
		if c.ips++; c.ips%spotEvery == 0 && !c.answerMatchesStore(r.Path, body) {
			return "ip_answer_differs_from_store"
		}
	}
	return ""
}

func (c *checker) answerMatchesStore(path string, body []byte) bool {
	ip, err := netmodel.ParseIP(strings.TrimPrefix(path, "/v1/ip/"))
	if err != nil {
		return false
	}
	var got struct {
		Mapped bool         `json:"mapped"`
		Prefix string       `json:"prefix"`
		ASNs   []astopo.ASN `json:"asns"`
	}
	if json.Unmarshal(body, &got) != nil {
		return false
	}
	p, origins, ok := c.st.LookupIP(ip)
	if got.Mapped != ok {
		return false
	}
	return !ok || (got.Prefix == p.String() && slices.Equal(got.ASNs, origins))
}

// scanGeneration pulls the top-level "generation" number out of a JSON
// body without decoding it all; a full decode per response would cost
// the driver more CPU than the daemon spends answering.
func scanGeneration(body []byte) (uint64, bool) {
	const key = `"generation":`
	i := bytes.Index(body, []byte(key))
	if i < 0 {
		return 0, false
	}
	rest := bytes.TrimLeft(body[i+len(key):], " \t")
	n := 0
	for n < len(rest) && rest[n] >= '0' && rest[n] <= '9' {
		n++
	}
	g, err := strconv.ParseUint(string(rest[:n]), 10, 64)
	return g, err == nil
}

// drive runs one sender loop per connection and merges what they saw.
func drive(addr string, st *footstore.Store, onGen func(uint64), loop func(c *conn, i int)) *phase {
	conns := make([]*conn, senders)
	for i := range conns {
		conns[i] = newConn(addr, st, onGen)
	}
	t0 := time.Now()
	var wg sync.WaitGroup
	for i, c := range conns {
		wg.Add(1)
		go func(c *conn, i int) {
			defer wg.Done()
			loop(c, i)
		}(c, i)
	}
	wg.Wait()
	out := &phase{wall: time.Since(t0), failures: make(map[string]int64)}
	for _, c := range conns {
		out.merge(&c.ph)
		c.close()
	}
	return out
}

// depth is how many pipelined requests each closed-loop connection has
// outstanding at a time.
const depth = 16

// closedLoop sends the plan back to back on every connection for d:
// each sender issues its next depth requests only when the previous
// ones are answered, so the rate is whatever the daemon sustains. next
// is the shared position in the plan, which wraps around.
func closedLoop(ctx context.Context, addr string, plan *loadgen.Plan, st *footstore.Store, d time.Duration, next *atomic.Int64, onGen func(uint64)) *phase {
	end := time.Now().Add(d)
	n := int64(len(plan.Requests))
	return drive(addr, st, onGen, func(c *conn, _ int) {
		for ctx.Err() == nil && time.Now().Before(end) {
			i := (next.Add(depth) - depth) % n
			c.sendPipelined(plan.Requests[i:min(i+depth, n)])
		}
	})
}

// openLoop sends requests on a fixed schedule of rate per second for d,
// whatever the daemon does: request k is due at k/rate, the senders take
// turns, and latency runs from the due time, so a stall is charged to
// every request queued behind it.
func openLoop(ctx context.Context, addr string, plan *loadgen.Plan, st *footstore.Store, rate float64, d time.Duration, next *atomic.Int64) *phase {
	n := int64(rate * d.Seconds())
	first := next.Add(n) - n
	start := time.Now()
	return drive(addr, st, nil, func(c *conn, j int) {
		for k := int64(j); k < n && ctx.Err() == nil; k += senders {
			due := start.Add(time.Duration(float64(k) / rate * float64(time.Second)))
			if wait := time.Until(due); wait > 0 {
				sleepUntil(due)
			} else if -wait > lateAfter {
				c.ph.late++
			}
			c.send(&plan.Requests[(first+k)%int64(len(plan.Requests))], due)
		}
	})
}

// spinWindow is how long before a due time sleepUntil stops sleeping
// and starts yielding; it covers the kernel's default 50µs timer slack.
const spinWindow = 100 * time.Microsecond

// sleepUntil waits for t with well under 100µs of error. Go's timers
// round sub-millisecond sleeps up to about a millisecond on Linux, which
// would be charged to every open-loop request, so it sleeps in the
// kernel until just before t and yields the processor for the rest.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t) - spinWindow
		if d <= 0 {
			break
		}
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil) // EINTR just loops
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// reloader sends the daemon a SIGHUP every interval and measures, for
// each, how long until a response carrying the new generation arrives.
type reloader struct {
	pid   int
	every time.Duration

	mu      sync.Mutex
	pending []time.Time // send times of SIGHUPs not yet visible, oldest first
	seen    uint64      // newest generation answered
	visible []time.Duration
	sent    int
}

func newReloader(pid int, every time.Duration) *reloader {
	return &reloader{pid: pid, every: every, seen: 1}
}

// observe is the connections' onGen hook.
func (rl *reloader) observe(gen uint64) {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	if gen <= rl.seen {
		return
	}
	now := time.Now()
	for ; rl.seen < gen && len(rl.pending) > 0; rl.seen++ {
		rl.visible = append(rl.visible, now.Sub(rl.pending[0]))
		rl.pending = rl.pending[1:]
	}
	rl.seen = gen
}

// run signals until stop closes. Bookkeeping precedes the signal, so no
// answer can arrive before its SIGHUP is on record.
func (rl *reloader) run(stop <-chan struct{}) error {
	t := time.NewTicker(rl.every)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return nil
		case <-t.C:
		}
		rl.mu.Lock()
		rl.sent++
		rl.pending = append(rl.pending, time.Now())
		rl.mu.Unlock()
		if err := syscall.Kill(rl.pid, syscall.SIGHUP); err != nil {
			return err
		}
	}
}
