// Package resilience holds the retry policy for the one component whose
// faults clear on their own — the live prober's dials and handshakes over
// real sockets — and the circuit breaker offnetd's serving path trips
// (breaker.go). Retry implements capped exponential backoff with full
// jitter (the AWS-architecture recipe: sleep a uniform duration in
// (0, min(cap, base·2^attempt)], which decorrelates synchronized retry
// storms better than equal or decorrelated jitter) and is context-aware
// throughout. Reads of fixed local files are not retried anywhere: a
// second read of the same bytes fails the same way.
package resilience

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"offnetscope/internal/rng"
)

// Policy tunes Retry. The zero value is usable: 3 attempts, 50ms base
// delay, 2s cap.
type Policy struct {
	// MaxAttempts is the total number of tries including the first.
	// Zero or negative means 3.
	MaxAttempts int
	// BaseDelay seeds the exponential schedule. Zero means 50ms.
	BaseDelay time.Duration
	// MaxDelay caps a single backoff sleep. Zero means 2s.
	MaxDelay time.Duration
	// sleep is swapped by tests to observe the schedule.
	sleep func(context.Context, time.Duration) error
}

func (p Policy) withDefaults() Policy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 3
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 50 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 2 * time.Second
	}
	if p.sleep == nil {
		p.sleep = sleepCtx
	}
	return p
}

// DefaultClassify treats an error as retryable unless it stems from the
// caller's own context ending — a cancelled or timed-out context never
// heals inside the retry loop. Everything else (dial refusals, resets,
// timeouts of the individual attempt) is presumed transient: for scan
// traffic the cost of a wasted retry is far below the cost of
// under-counting hosts (§5).
func DefaultClassify(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	return true
}

// jitter is the jitter stream every Retry draws from; guarded because
// Retry runs from many goroutines.
var (
	jitterMu sync.Mutex
	jitter   = rng.New(0x7e5).Fork("resilience")
)

func jitterFloat() float64 {
	jitterMu.Lock()
	defer jitterMu.Unlock()
	return jitter.Float64()
}

// Retry runs op until it succeeds, exhausts the attempt budget, hits an
// error DefaultClassify does not retry, or ctx ends. It returns nil on
// success and otherwise the last error observed (the attempt count is
// attached via %w wrapping only in the exhausted case, so callers can
// still match the underlying error with errors.Is/As).
func Retry(ctx context.Context, p Policy, op func(context.Context) error) error {
	p = p.withDefaults()
	var err error
	for attempt := 0; attempt < p.MaxAttempts; attempt++ {
		if cerr := ctx.Err(); cerr != nil {
			if err == nil {
				return cerr
			}
			return err
		}
		if err = op(ctx); err == nil {
			return nil
		}
		if !DefaultClassify(err) {
			return err
		}
		if attempt == p.MaxAttempts-1 {
			break
		}
		if serr := p.sleep(ctx, Backoff(p, attempt, jitterFloat())); serr != nil {
			return err
		}
	}
	return fmt.Errorf("resilience: %d attempts exhausted: %w", p.MaxAttempts, err)
}

// Backoff computes the sleep before retrying after the given attempt
// (0-based): a uniform draw u∈[0,1) over (0, min(MaxDelay,
// BaseDelay·2^attempt)] — full jitter. Exposed for callers that manage
// their own loops.
func Backoff(p Policy, attempt int, u float64) time.Duration {
	p = p.withDefaults()
	ceiling := p.BaseDelay
	for i := 0; i < attempt && ceiling < p.MaxDelay; i++ {
		ceiling *= 2
	}
	if ceiling > p.MaxDelay {
		ceiling = p.MaxDelay
	}
	d := time.Duration(u * float64(ceiling))
	if d <= 0 {
		d = time.Millisecond
	}
	return d
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
