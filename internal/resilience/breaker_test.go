package resilience

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"offnetscope/internal/obs"
)

// fakeClock is the deterministic time source every breaker test runs
// on: no sleeps, transitions driven by explicit advances.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1_700_000_000, 0)} }

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

var errBoom = errors.New("boom")

// TestBreakerConsecutiveFailureTrip walks the full state machine:
// closed → open on N consecutive failures → rejections during cooldown
// → half-open probe → closed on probe success.
func TestBreakerConsecutiveFailureTrip(t *testing.T) {
	clock := newFakeClock()
	reg := obs.NewRegistry("test")
	b := NewBreaker(BreakerPolicy{
		ConsecutiveFailures: 3,
		OpenFor:             time.Second,
		Metrics:             reg,
		Name:                "t",
		Now:                 clock.now,
	})

	// Successes interleaved with failures never trip.
	for i := 0; i < 10; i++ {
		if err := b.Do(func() error { return errBoom }); !errors.Is(err, errBoom) {
			t.Fatalf("call %d: %v", i, err)
		}
		if err := b.Do(func() error { return nil }); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("state after interleaved outcomes = %v, want closed", got)
	}

	// Three in a row trip it.
	for i := 0; i < 3; i++ {
		b.Do(func() error { return errBoom })
	}
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("state after 3 consecutive failures = %v, want open", got)
	}

	// While open: fail fast, op not run.
	ran := false
	if err := b.Do(func() error { ran = true; return nil }); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("open breaker returned %v, want ErrBreakerOpen", err)
	}
	if ran {
		t.Fatal("open breaker ran the op")
	}

	// Cooldown not elapsed yet.
	clock.advance(999 * time.Millisecond)
	if err := b.Allow(); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("Allow before cooldown = %v, want ErrBreakerOpen", err)
	}

	// Cooldown elapsed: one probe admitted, success closes.
	clock.advance(2 * time.Millisecond)
	if err := b.Do(func() error { return nil }); err != nil {
		t.Fatalf("half-open probe: %v", err)
	}
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("state after probe success = %v, want closed", got)
	}

	snap := reg.Snapshot()
	if got := snap.Counter("breaker.t.opened"); got != 1 {
		t.Errorf("opened counter = %d, want 1", got)
	}
	if got := snap.Counter("breaker.t.closed"); got != 1 {
		t.Errorf("closed counter = %d, want 1", got)
	}
	if got := snap.Counter("breaker.t.rejected"); got != 2 {
		t.Errorf("rejected counter = %d, want 2", got)
	}
}

// TestBreakerHalfOpenFailureReopens: a failed probe restarts the
// cooldown; the breaker must reject again for a full OpenFor.
func TestBreakerHalfOpenFailureReopens(t *testing.T) {
	clock := newFakeClock()
	b := NewBreaker(BreakerPolicy{ConsecutiveFailures: 1, OpenFor: time.Second, Now: clock.now})

	b.Do(func() error { return errBoom })
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("state = %v, want open", got)
	}
	clock.advance(time.Second)
	if err := b.Do(func() error { return errBoom }); !errors.Is(err, errBoom) {
		t.Fatalf("probe: %v", err)
	}
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("state after failed probe = %v, want open", got)
	}
	clock.advance(500 * time.Millisecond)
	if err := b.Allow(); !errors.Is(err, ErrBreakerOpen) {
		t.Fatal("cooldown must restart after a failed probe")
	}
	clock.advance(501 * time.Millisecond)
	if err := b.Do(func() error { return nil }); err != nil {
		t.Fatalf("second probe: %v", err)
	}
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("state = %v, want closed", got)
	}
}

// TestBreakerHalfOpenProbeCap: half-open admits one probe at a time,
// and that probe's success closes the breaker.
func TestBreakerHalfOpenProbeCap(t *testing.T) {
	clock := newFakeClock()
	b := NewBreaker(BreakerPolicy{ConsecutiveFailures: 1, OpenFor: time.Second, Now: clock.now})
	b.Do(func() error { return errBoom })
	clock.advance(time.Second)

	if err := b.Allow(); err != nil {
		t.Fatalf("probe admission: %v", err)
	}
	if err := b.Allow(); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("second probe should be rejected, got %v", err)
	}
	if got := b.State(); got != BreakerHalfOpen {
		t.Fatalf("state with the probe in flight = %v, want half-open", got)
	}
	b.Record(nil)
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("state = %v, want closed", got)
	}
}

// TestBreakerClassifyIgnoresCallerCancellation: a cancelled caller
// context is not evidence the dependency is unhealthy.
func TestBreakerClassifyIgnoresCallerCancellation(t *testing.T) {
	b := NewBreaker(BreakerPolicy{ConsecutiveFailures: 1})
	b.Do(func() error { return context.Canceled })
	b.Do(func() error { return fmt.Errorf("wrapped: %w", context.DeadlineExceeded) })
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("state = %v, want closed (cancellation is not failure)", got)
	}
	b.Do(func() error { return errBoom })
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("state = %v, want open", got)
	}
}

// TestBreakerConcurrentUse hammers one breaker from many goroutines
// under -race: the invariant is simply no data race and no panic, plus
// allowed+rejected accounting for every Allow.
func TestBreakerConcurrentUse(t *testing.T) {
	reg := obs.NewRegistry("test")
	b := NewBreaker(BreakerPolicy{ConsecutiveFailures: 4, OpenFor: time.Millisecond, Metrics: reg, Name: "conc"})
	var wg sync.WaitGroup
	const goroutines, calls = 8, 200
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				b.Do(func() error {
					if (g+i)%3 == 0 {
						return errBoom
					}
					return nil
				})
			}
		}(g)
	}
	wg.Wait()
	snap := reg.Snapshot()
	total := snap.Counter("breaker.conc.allowed") + snap.Counter("breaker.conc.rejected")
	if total != goroutines*calls {
		t.Fatalf("allowed+rejected = %d, want %d", total, goroutines*calls)
	}
}
