package resilience

import (
	"context"
	"errors"
	"testing"
	"time"
)

var errFlaky = errors.New("flaky")

// recordingPolicy captures the backoff schedule instead of sleeping.
func recordingPolicy(p Policy, slept *[]time.Duration) Policy {
	p.sleep = func(_ context.Context, d time.Duration) error {
		*slept = append(*slept, d)
		return nil
	}
	return p
}

func TestRetrySucceedsAfterTransientFailures(t *testing.T) {
	var slept []time.Duration
	calls := 0
	err := Retry(context.Background(), recordingPolicy(Policy{MaxAttempts: 5}, &slept),
		func(context.Context) error {
			calls++
			if calls < 3 {
				return errFlaky
			}
			return nil
		})
	if err != nil {
		t.Fatalf("Retry = %v", err)
	}
	if calls != 3 || len(slept) != 2 {
		t.Fatalf("calls=%d slept=%d, want 3 and 2", calls, len(slept))
	}
}

func TestRetryExhaustsAttempts(t *testing.T) {
	var slept []time.Duration
	calls := 0
	err := Retry(context.Background(), recordingPolicy(Policy{MaxAttempts: 4}, &slept),
		func(context.Context) error { calls++; return errFlaky })
	if calls != 4 {
		t.Fatalf("calls = %d, want 4", calls)
	}
	if !errors.Is(err, errFlaky) {
		t.Fatalf("exhausted error does not wrap the cause: %v", err)
	}
}

func TestRetryRespectsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	err := Retry(ctx, Policy{MaxAttempts: 10, BaseDelay: time.Millisecond},
		func(context.Context) error {
			calls++
			cancel() // fails once, then the sleep sees a dead context
			return errFlaky
		})
	if calls != 1 {
		t.Fatalf("calls = %d, want 1", calls)
	}
	if !errors.Is(err, errFlaky) {
		t.Fatalf("err = %v, want the last op error", err)
	}
	// A context dead before the first attempt returns the context error.
	if err := Retry(ctx, Policy{}, func(context.Context) error {
		t.Fatal("op ran under a dead context")
		return nil
	}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled Retry = %v", err)
	}
}

func TestDefaultClassify(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{nil, false},
		{errFlaky, true},
		{context.Canceled, false},
		{context.DeadlineExceeded, false},
	}
	for _, c := range cases {
		if got := DefaultClassify(c.err); got != c.want {
			t.Errorf("DefaultClassify(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}

// The schedule is capped exponential with full jitter: every sleep is
// bounded by min(MaxDelay, Base·2^attempt).
func TestBackoffSchedule(t *testing.T) {
	p := Policy{BaseDelay: 10 * time.Millisecond, MaxDelay: 80 * time.Millisecond}
	for attempt, wantCeil := range []time.Duration{
		10 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond,
		80 * time.Millisecond, 80 * time.Millisecond, 80 * time.Millisecond,
	} {
		for _, u := range []float64{0, 0.25, 0.5, 0.999} {
			d := Backoff(p, attempt, u)
			if d <= 0 || d > wantCeil {
				t.Fatalf("Backoff(attempt=%d, u=%v) = %v, ceiling %v", attempt, u, d, wantCeil)
			}
		}
	}
}
