package resilience

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"offnetscope/internal/obs"
)

// Breaker is the second half of the package's overload story. Retry
// protects one operation against transient failure; the breaker protects
// the *system* against an operation that keeps failing — an overloaded
// serving path — by failing fast instead of queueing more work behind a
// dependency that cannot absorb it.
//
// The state machine is the classic three states:
//
//	closed    all calls pass; failures are tallied. Trips to open on
//	          ConsecutiveFailures in a row.
//	open      all calls are rejected with ErrBreakerOpen until OpenFor
//	          has elapsed, then the breaker admits one probe (half-open).
//	half-open one call is admitted at a time. A failure reopens the
//	          breaker; a success closes it and resets the tally.
//
// Time is read through the Now hook, so tests advance a fake clock and
// the whole machine is deterministic; the zero hook reads time.Now.
// All methods are safe for concurrent use.

// ErrBreakerOpen is returned by Allow/Do while the breaker is open.
// DefaultClassify treats it as retryable (the breaker may close), but
// callers that fan out should treat it as "back off now".
var ErrBreakerOpen = errors.New("resilience: circuit breaker open")

// BreakerState names the three states, for tests and gauges.
type BreakerState int32

const (
	BreakerClosed BreakerState = iota
	BreakerHalfOpen
	BreakerOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerHalfOpen:
		return "half-open"
	case BreakerOpen:
		return "open"
	}
	return fmt.Sprintf("state(%d)", int32(s))
}

// BreakerPolicy tunes a Breaker. The zero value is usable: trip after 5
// consecutive failures, stay open 5s, close after 1 half-open success.
type BreakerPolicy struct {
	// ConsecutiveFailures trips the breaker when that many failures are
	// recorded in a row. Zero or negative means 5.
	ConsecutiveFailures int
	// OpenFor is how long the breaker rejects before admitting a probe.
	// Zero means 5s.
	OpenFor time.Duration
	// Classify reports whether an error counts as a failure. Nil treats
	// every non-nil error except the caller's own context ending as a
	// failure (DefaultClassify) — a cancelled caller says nothing about
	// the dependency's health.
	Classify func(error) bool
	// Metrics, when set, receives breaker accounting under
	// breaker.<name>.*: allowed, rejected, failures, opened, half_open,
	// closed counters and a state gauge (0 closed, 1 half-open, 2 open).
	Metrics *obs.Registry
	// Name scopes the metric names; empty means "default".
	Name string
	// Now is the clock hook; nil means time.Now. Tests inject a fake
	// clock to drive open→half-open transitions deterministically.
	Now func() time.Time
}

func (p BreakerPolicy) withDefaults() BreakerPolicy {
	if p.ConsecutiveFailures <= 0 {
		p.ConsecutiveFailures = 5
	}
	if p.OpenFor <= 0 {
		p.OpenFor = 5 * time.Second
	}
	if p.Classify == nil {
		p.Classify = DefaultClassify
	}
	if p.Now == nil {
		p.Now = time.Now
	}
	if p.Name == "" {
		p.Name = "default"
	}
	return p
}

// Breaker is one circuit breaker. Create with NewBreaker.
//
// The closed state is the hot path — a breaker guarding a serving
// path sees every request — so it is lock-free: Allow reads one
// atomic, and a successful Record writes at most one. Everything rare
// (failures, trips, open and half-open traffic) serializes on the
// mutex. The atomics mean a request racing a trip may be admitted as a
// straggler; Record already treats straggler outcomes as stale, so the
// state machine stays exact where it matters and the deterministic
// (sequential) tests see precisely the classic semantics.
type Breaker struct {
	p BreakerPolicy

	allowed, rejected *obs.Counter
	failures          *obs.Counter
	opened, probed    *obs.Counter
	closed            *obs.Counter
	stateGauge        *obs.Gauge

	fastState   atomic.Int32 // mirrors state for the lock-free closed path
	consecFails atomic.Int64

	mu       sync.Mutex
	state    BreakerState
	openedAt time.Time
	probing  bool // half-open: the one probe is admitted and unrecorded
}

// NewBreaker builds a breaker in the closed state.
func NewBreaker(p BreakerPolicy) *Breaker {
	p = p.withDefaults()
	reg, name := p.Metrics, p.Name
	b := &Breaker{
		p:          p,
		allowed:    reg.Counter("breaker." + name + ".allowed"),
		rejected:   reg.Counter("breaker." + name + ".rejected"),
		failures:   reg.Counter("breaker." + name + ".failures"),
		opened:     reg.Counter("breaker." + name + ".opened"),
		probed:     reg.Counter("breaker." + name + ".half_open"),
		closed:     reg.Counter("breaker." + name + ".closed"),
		stateGauge: reg.Gauge("breaker." + name + ".state"),
	}
	return b
}

// State reports the current state (open flips to half-open lazily, on
// the first Allow after the cooldown — State reflects that).
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Allow reports whether a call may proceed. A nil return admits the
// call and MUST be paired with exactly one Record of its outcome;
// ErrBreakerOpen means fail fast without attempting the call.
func (b *Breaker) Allow() error {
	if BreakerState(b.fastState.Load()) == BreakerClosed {
		b.allowed.Inc()
		return nil
	}
	return b.allowSlow()
}

func (b *Breaker) allowSlow() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		b.allowed.Inc()
		return nil
	case BreakerOpen:
		if b.p.Now().Sub(b.openedAt) < b.p.OpenFor {
			b.rejected.Inc()
			return ErrBreakerOpen
		}
		b.setState(BreakerHalfOpen)
		b.probed.Inc()
		fallthrough
	case BreakerHalfOpen:
		if b.probing {
			b.rejected.Inc()
			return ErrBreakerOpen
		}
		b.probing = true
		b.allowed.Inc()
		return nil
	}
	b.rejected.Inc()
	return ErrBreakerOpen
}

// Record feeds the outcome of one admitted call back into the machine.
func (b *Breaker) Record(err error) {
	failed := b.p.Classify(err)
	// Lock-free success path: in the closed state the only bookkeeping
	// is clearing the consecutive tally.
	if !failed && BreakerState(b.fastState.Load()) == BreakerClosed {
		if b.consecFails.Load() != 0 {
			b.consecFails.Store(0)
		}
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if failed {
		b.failures.Inc()
	}
	switch b.state {
	case BreakerHalfOpen:
		if !b.probing {
			return // straggler admitted before the trip; its outcome is stale
		}
		b.probing = false
		if failed {
			b.trip()
		} else {
			b.reset()
		}
	case BreakerClosed:
		if !failed {
			b.consecFails.Store(0)
		} else if b.consecFails.Add(1) >= int64(b.p.ConsecutiveFailures) {
			b.trip()
		}
	case BreakerOpen:
		// A straggler from before the trip; its outcome is stale.
	}
}

// trip moves to open and stamps the cooldown clock. Caller holds b.mu.
func (b *Breaker) trip() {
	b.setState(BreakerOpen)
	b.openedAt = b.p.Now()
	b.opened.Inc()
}

// reset returns to closed with a clean tally. Caller holds b.mu.
func (b *Breaker) reset() {
	b.setState(BreakerClosed)
	b.closed.Inc()
	b.consecFails.Store(0)
}

func (b *Breaker) setState(s BreakerState) {
	b.state = s
	b.fastState.Store(int32(s))
	b.stateGauge.Set(int64(s))
}

// Do is the convenience form: Allow, run op, Record. The op's error is
// returned as-is; a rejected call returns ErrBreakerOpen without
// running op.
func (b *Breaker) Do(op func() error) error {
	if err := b.Allow(); err != nil {
		return err
	}
	err := op()
	b.Record(err)
	return err
}
