package chaos

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// chaosBackend is a plain handler with a body big enough to truncate.
func chaosBackend() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"path":%q,"pad":%q}`, r.URL.Path, strings.Repeat("x", 512))
	})
}

// TestTransportZeroConfigTransparent: no config, no faults, bytes
// untouched.
func TestTransportZeroConfigTransparent(t *testing.T) {
	ts := httptest.NewServer(chaosBackend())
	defer ts.Close()
	tr := NewTransport(nil, HTTPConfig{})
	client := &http.Client{Transport: tr}
	resp, err := client.Get(ts.URL + "/v1/snapshots")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("status %d, read err %v", resp.StatusCode, err)
	}
	if !strings.Contains(string(body), `"pad"`) {
		t.Fatalf("body mangled: %s", body)
	}
	if got := tr.Counts(); got != (FaultCounts{}) {
		t.Fatalf("zero config fired faults: %+v", got)
	}
}

// TestTransportInjects5xx: probability 1 replaces every response with a
// marked 502 — the marker is what tells injected faults apart from
// genuine ones.
func TestTransportInjects5xx(t *testing.T) {
	ts := httptest.NewServer(chaosBackend())
	defer ts.Close()
	tr := NewTransport(nil, HTTPConfig{Seed: 1, Inject5xxProb: 1})
	client := &http.Client{Transport: tr}
	resp, err := client.Get(ts.URL + "/v1/snapshots")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("status = %d, want 502", resp.StatusCode)
	}
	if got := resp.Header.Get(FaultHeader); got != "injected-5xx" {
		t.Fatalf("%s = %q, want injected-5xx", FaultHeader, got)
	}
	if got := tr.Counts().Injected5xx; got != 1 {
		t.Fatalf("Injected5xx = %d, want 1", got)
	}
}

// TestTransportReset: probability 1 fails every request with a
// classifiable ECONNRESET before it reaches the server.
func TestTransportReset(t *testing.T) {
	hits := 0
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { hits++ }))
	defer ts.Close()
	tr := NewTransport(nil, HTTPConfig{Seed: 1, ResetProb: 1})
	client := &http.Client{Transport: tr}
	_, err := client.Get(ts.URL + "/v1/snapshots")
	if err == nil {
		t.Fatal("reset-injected request succeeded")
	}
	if !errors.Is(err, syscall.ECONNRESET) {
		t.Fatalf("err = %v, want ECONNRESET in the chain", err)
	}
	if hits != 0 {
		t.Fatalf("backend saw %d requests, want 0 (reset fires before the dial)", hits)
	}
}

// TestTransportTruncatesBody: the torn-response shape — headers fine,
// Content-Length intact, body read dies with ErrUnexpectedEOF.
func TestTransportTruncatesBody(t *testing.T) {
	ts := httptest.NewServer(chaosBackend())
	defer ts.Close()
	tr := NewTransport(nil, HTTPConfig{Seed: 1, TruncateProb: 1})
	client := &http.Client{Transport: tr}
	resp, err := client.Get(ts.URL + "/v1/snapshots")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get(FaultHeader); got != "truncated-body" {
		t.Fatalf("%s = %q, want truncated-body", FaultHeader, got)
	}
	body, err := io.ReadAll(resp.Body)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("body read err = %v, want ErrUnexpectedEOF", err)
	}
	if len(body) == 0 || int64(len(body)) >= resp.ContentLength {
		t.Fatalf("read %d bytes of %d, want a strict prefix", len(body), resp.ContentLength)
	}
}

// TestTransportDeterministicAcrossSchedules is the keystone property:
// the same request multiset yields identical fault totals regardless of
// the order (or concurrency) requests ran in, because faults key on
// (path, per-path occurrence), not on a shared stream.
func TestTransportDeterministicAcrossSchedules(t *testing.T) {
	ts := httptest.NewServer(chaosBackend())
	defer ts.Close()
	cfg := HTTPConfig{Seed: 42, Inject5xxProb: 0.3, TruncateProb: 0.2}
	paths := []string{"/v1/snapshots", "/v1/ip/10.0.0.1", "/v1/as/100"}

	run := func(concurrent bool) FaultCounts {
		tr := NewTransport(nil, HTTPConfig{Seed: cfg.Seed, Inject5xxProb: cfg.Inject5xxProb, TruncateProb: cfg.TruncateProb})
		client := &http.Client{Transport: tr}
		do := func(path string) {
			resp, err := client.Get(ts.URL + path)
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body) //nolint:errcheck — truncation is expected
			resp.Body.Close()
		}
		if concurrent {
			var wg sync.WaitGroup
			for _, path := range paths {
				for i := 0; i < 20; i++ {
					wg.Add(1)
					go func(p string) { defer wg.Done(); do(p) }(path)
				}
			}
			wg.Wait()
		} else {
			// A deliberately different order: round-robin across paths.
			for i := 0; i < 20; i++ {
				for _, path := range paths {
					do(path)
				}
			}
		}
		return tr.Counts()
	}

	serial := run(false)
	parallel := run(true)
	if serial != parallel {
		t.Fatalf("fault totals depend on schedule:\n serial   %+v\n parallel %+v", serial, parallel)
	}
	if serial.Injected5xx == 0 || serial.TruncatedBodies == 0 {
		t.Fatalf("expected some faults at these rates: %+v", serial)
	}
}

// TestProxyTransparentAndReset covers the listener-level relay: a
// zero-fault proxy is invisible, and ResetProb=1 tears every
// connection down mid-response.
func TestProxyTransparentAndReset(t *testing.T) {
	ts := httptest.NewServer(chaosBackend())
	defer ts.Close()
	backendAddr := strings.TrimPrefix(ts.URL, "http://")

	clean, err := NewProxy(backendAddr, HTTPConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer clean.Close()
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get("http://" + clean.Addr() + "/v1/snapshots")
	if err != nil {
		t.Fatalf("through clean proxy: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != 200 || !strings.Contains(string(body), `"pad"`) {
		t.Fatalf("clean proxy mangled the exchange: status %d err %v", resp.StatusCode, err)
	}

	rough, err := NewProxy(backendAddr, HTTPConfig{Seed: 7, ResetProb: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer rough.Close()
	// Fresh client: keepalive pools must not bypass the rough proxy.
	roughClient := &http.Client{Timeout: 5 * time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	sawError := false
	for i := 0; i < 5; i++ {
		resp, err := roughClient.Get("http://" + rough.Addr() + "/v1/snapshots")
		if err != nil {
			sawError = true
			continue
		}
		if _, err := io.ReadAll(resp.Body); err != nil {
			sawError = true
		}
		resp.Body.Close()
	}
	if !sawError {
		t.Fatal("ResetProb=1 proxy never surfaced an error")
	}
	if got := rough.Counts().Resets; got == 0 {
		t.Fatal("proxy reset counter is zero")
	}
}

// TestTransportCloseIdleConnections: the wrapper must forward the
// method to its base — http.Client type-asserts its transport for it,
// so without forwarding, teardown leaks the idle pool.
func TestTransportCloseIdleConnections(t *testing.T) {
	base := &closeIdleRecorder{}
	tr := NewTransport(base, HTTPConfig{})
	(&http.Client{Transport: tr}).CloseIdleConnections()
	if !base.called {
		t.Fatal("CloseIdleConnections did not reach the base transport")
	}
}

type closeIdleRecorder struct{ called bool }

func (c *closeIdleRecorder) RoundTrip(*http.Request) (*http.Response, error) {
	return nil, errors.New("unused")
}
func (c *closeIdleRecorder) CloseIdleConnections() { c.called = true }
