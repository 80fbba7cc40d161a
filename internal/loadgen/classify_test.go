package loadgen

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"offnetscope/internal/chaos"
	"offnetscope/internal/obs"
	"offnetscope/internal/offnetserve"
)

// timeoutErr is a minimal net.Error for the interface-based branch.
type timeoutErr struct{}

func (timeoutErr) Error() string   { return "deadline reached" }
func (timeoutErr) Timeout() bool   { return true }
func (timeoutErr) Temporary() bool { return true }

// TestClassifyTransport pins the error → bucket mapping, wrapped the
// way real transports wrap them (url.Error, os.SyscallError).
func TestClassifyTransport(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want string
	}{
		{"reset", &url.Error{Op: "Get", Err: os.NewSyscallError("read", syscall.ECONNRESET)}, "reset"},
		{"reset-wrapped", fmt.Errorf("chaos: injected reset: %w", syscall.ECONNRESET), "reset"},
		{"refused", &net.OpError{Op: "dial", Err: os.NewSyscallError("connect", syscall.ECONNREFUSED)}, "refused"},
		{"ctx-timeout", fmt.Errorf("doing request: %w", context.DeadlineExceeded), "timeout"},
		{"net-timeout", &url.Error{Op: "Get", Err: timeoutErr{}}, "timeout"},
		{"torn-body", io.ErrUnexpectedEOF, "eof"},
		{"eof", &url.Error{Op: "Get", Err: io.EOF}, "eof"},
		{"other", errors.New("flux capacitor misaligned"), "other"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := classifyTransport(tc.err); got != tc.want {
				t.Fatalf("classifyTransport(%v) = %q, want %q", tc.err, got, tc.want)
			}
		})
	}
}

// TestDriveClassifiesChaosFaults drives a real daemon through the
// chaos transport and checks the report splits the injected faults
// into the right buckets — resets as transport (not 5xx), torn bodies
// as eof, totals consistent.
func TestDriveClassifiesChaosFaults(t *testing.T) {
	st := benchStore(t)
	srv := offnetserve.New(st, offnetserve.Config{Workers: 16})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	plan, err := BuildPlan(st, PlanConfig{Seed: 11, Requests: 400})
	if err != nil {
		t.Fatal(err)
	}
	tr := chaos.NewTransport(nil, chaos.HTTPConfig{Seed: 11, ResetProb: 0.15, TruncateProb: 0.1})
	client := &http.Client{Transport: tr, Timeout: 10 * time.Second}
	reg := obs.NewRegistry("classify-test")
	rep, err := Drive(context.Background(), plan, client, Options{
		Concurrency: 8,
		BaseURL:     ts.URL,
		Registry:    reg,
	})
	if err != nil {
		t.Fatal(err)
	}

	counts := tr.Counts()
	if counts.Resets == 0 || counts.TruncatedBodies == 0 {
		t.Fatalf("chaos injected nothing at these rates: %+v", counts)
	}
	if got := rep.TransportByClass["reset"]; got != int(counts.Resets) {
		t.Errorf("reset bucket = %d, injected %d", got, counts.Resets)
	}
	if got := rep.TransportByClass["eof"]; got != int(counts.TruncatedBodies) {
		t.Errorf("eof bucket = %d, truncated %d", got, counts.TruncatedBodies)
	}
	sum := 0
	for _, n := range rep.TransportByClass {
		sum += n
	}
	if sum != rep.Transport {
		t.Errorf("buckets sum to %d, Transport = %d", sum, rep.Transport)
	}
	// Completed responses + transport failures must account for the
	// whole plan: nothing silently dropped.
	total := rep.Transport
	for _, n := range rep.ByStatus {
		total += n
	}
	if total != len(plan.Requests) {
		t.Errorf("accounted for %d of %d requests", total, len(plan.Requests))
	}
	// Per-class counters also land on the caller's registry.
	snap := reg.Snapshot()
	if got := snap.Counter("loadgen.transport.reset"); got != int64(counts.Resets) {
		t.Errorf("loadgen.transport.reset = %d, want %d", got, counts.Resets)
	}
}

// TestOnResponseReceivesHeaders: the hook sees response headers, which
// is how offnetd's crash-only e2e spots chaos markers.
func TestOnResponseReceivesHeaders(t *testing.T) {
	st := benchStore(t)
	srv := offnetserve.New(st, offnetserve.Config{CacheSize: 32})
	plan, err := BuildPlan(st, PlanConfig{Seed: 2, Requests: 50})
	if err != nil {
		t.Fatal(err)
	}
	var sawContentType atomic.Bool
	_, err = Drive(context.Background(), plan, HandlerTarget{Handler: srv}, Options{
		Concurrency: 4,
		OnResponse: func(req *Request, status int, header http.Header, body []byte) {
			if header.Get("Content-Type") == "application/json" {
				sawContentType.Store(true)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sawContentType.Load() {
		t.Fatal("OnResponse never saw a Content-Type header")
	}
}
