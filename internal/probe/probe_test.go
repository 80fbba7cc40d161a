package probe

import (
	"context"
	"errors"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"offnetscope/internal/astopo"
	"offnetscope/internal/certmodel"
	"offnetscope/internal/core"
	"offnetscope/internal/corpus"
	"offnetscope/internal/hg"
	"offnetscope/internal/netmodel"
	"offnetscope/internal/servefarm"
	"offnetscope/internal/timeline"
)

// liveFarm builds a miniature Internet on loopback: Google on-net and
// off-net boxes, an Akamai edge, a self-signed impostor, and a
// background host.
func liveFarm(t testing.TB) *servefarm.Farm {
	t.Helper()
	specs := []servefarm.Spec{
		{
			Name: "google-onnet", Organization: "Google LLC",
			DNSNames: []string{"*.google.com", "*.googlevideo.com"},
			Headers:  []hg.Header{{Name: "Server", Value: "gws"}},
		},
		{
			Name: "google-offnet", Organization: "Google LLC",
			DNSNames: []string{"*.googlevideo.com", "*.google.com"},
			Headers:  []hg.Header{{Name: "Server", Value: "gws"}},
		},
		{
			Name: "akamai-edge", Organization: "Akamai Technologies, Inc.",
			DNSNames: []string{"a248.e.akamai.net"},
			Headers:  []hg.Header{{Name: "Server", Value: "AkamaiGHost"}},
		},
		{
			Name: "impostor", Organization: "Google LLC",
			DNSNames:   []string{"*.google.com"},
			SelfSigned: true,
			Headers:    []hg.Header{{Name: "Server", Value: "nginx"}},
		},
		{
			Name: "background", Organization: "Acme Web Services",
			DNSNames: []string{"www.acme.example"},
			Headers:  []hg.Header{{Name: "Server", Value: "nginx"}},
		},
	}
	farm, err := servefarm.Start(specs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(farm.Close)
	return farm
}

// leafOrg is the presented leaf's first Organization entry.
func leafOrg(r CertResult) string {
	if len(r.Chain) == 0 || len(r.Chain[0].Subject.Organization) == 0 {
		return ""
	}
	return r.Chain[0].Subject.Organization[0]
}

func TestFetchCertsDefault(t *testing.T) {
	farm := liveFarm(t)
	s := New(Config{Concurrency: 4})
	defer s.Close()

	results := s.FetchCerts(context.Background(), farm.TLSAddrs())
	byName := map[string]CertResult{}
	for i, r := range results {
		byName[farm.Servers[i].Spec.Name] = r
	}

	g := byName["google-onnet"]
	if g.Err != nil || leafOrg(g) != "Google LLC" || len(g.Chain) != 2 {
		t.Fatalf("google-onnet: org=%q chain=%d err=%v", leafOrg(g), len(g.Chain), g.Err)
	}
	names := strings.Join(g.Chain[0].DNSNames, ",")
	if !strings.Contains(names, "googlevideo") {
		t.Errorf("google-onnet dNSNames = %q", names)
	}

	// The self-signed impostor's chain is captured as presented; §4.1
	// rejects it later, in the engine.
	imp := byName["impostor"]
	if imp.Err != nil || len(imp.Chain) != 1 {
		t.Fatalf("impostor should present its lone self-signed leaf: chain=%d err=%v", len(imp.Chain), imp.Err)
	}
}

func TestFetchHeaders(t *testing.T) {
	farm := liveFarm(t)
	s := New(Config{})
	defer s.Close()
	ctx := context.Background()

	google := hg.Get(hg.Google)
	var onnet *servefarm.Server
	for _, srv := range farm.Servers {
		if srv.Spec.Name == "google-onnet" {
			onnet = srv
		}
	}
	res := s.FetchHeaders(ctx, []string{onnet.TLSAddr})
	if res[0].Err != nil || res[0].Status != 200 {
		t.Fatalf("https headers: %+v", res[0])
	}
	if !google.MatchesHeaders(res[0].Headers) {
		t.Errorf("gws header not detected in %v", res[0].Headers)
	}
}

// byPosition maps the record key of farm server i to AS 64512+i.
type byPosition struct{}

func (byPosition) Lookup(ip netmodel.IP) []astopo.ASN { return []astopo.ASN{astopo.ASN(64512 + ip)} }

func TestLiveMethodologyEndToEnd(t *testing.T) {
	// The full §4 loop over real sockets: the prober only collects, and
	// the one engine (internal/core) learns the fingerprint from the
	// on-net box, drops the invalid impostor, and confirms the off-net
	// by its headers.
	farm := liveFarm(t)
	s := New(Config{Concurrency: 8})
	defer s.Close()
	ctx := context.Background()

	addrs := farm.TLSAddrs()
	certs := s.FetchCerts(ctx, addrs)
	heads := s.FetchHeaders(ctx, addrs)
	trust := certmodel.NewTrustStore()
	if err := trust.AddX509Root(farm.CA.Cert); err != nil {
		t.Fatal(err)
	}
	snap := &corpus.Snapshot{Vendor: corpus.Certigo}
	for i := range addrs {
		if certs[i].Err == nil {
			snap.Certs = append(snap.Certs, corpus.CertRecord{IP: netmodel.IP(i), Chain: certmodel.FromX509(certs[i].Chain, trust)})
		}
		if heads[i].Err == nil {
			snap.HTTPS = append(snap.HTTPS, corpus.HeaderRecord{IP: netmodel.IP(i), Headers: heads[i].Headers})
		}
	}
	orgs := astopo.NewOrgDB()
	orgs.Set(64512, 0, "Google LLC") // server 0, google-onnet
	p := &core.Pipeline{
		Trust:  trust,
		Orgs:   orgs,
		Mapper: func(timeline.Snapshot) core.IPMapper { return byPosition{} },
		Opts:   core.DefaultOptions(),
	}
	st := corpus.StreamOf(snap, 0)
	st.ScannedAt = time.Now()
	inf, err := p.InferSnapshotStream(st)
	if err != nil {
		t.Fatal(err)
	}
	google := inf.Result.PerHG[hg.Google]
	if len(google.DNSNames) == 0 {
		t.Fatal("no on-net fingerprint learned")
	}
	if got := google.ConfirmedIPList; len(got) != 1 || farm.Servers[got[0]].Spec.Name != "google-offnet" {
		t.Fatalf("confirmed = %v, want exactly google-offnet", got)
	}
	if inf.Result.InvalidByReason[certmodel.ReasonSelfSigned] != 1 {
		t.Errorf("invalid by reason = %v, want the impostor as self-signed", inf.Result.InvalidByReason)
	}
}

func TestScannerTimeoutAndCancel(t *testing.T) {
	s := New(Config{Timeout: 300 * time.Millisecond})
	defer s.Close()
	// Unroutable TEST-NET address: must time out, not hang.
	start := time.Now()
	res := s.FetchCerts(context.Background(), []string{"192.0.2.1:443"})
	if res[0].Err == nil {
		t.Fatal("expected a dial error")
	}
	if time.Since(start) > 3*time.Second {
		t.Fatalf("timeout not honoured: %v", time.Since(start))
	}
	// Pre-cancelled context returns immediately, with the address and
	// the cancellation.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res = s.FetchCerts(ctx, []string{"192.0.2.1:443"})
	if res[0].Addr != "192.0.2.1:443" || !errors.Is(res[0].Err, context.Canceled) {
		t.Fatalf("cancelled scan = %+v, want the address and context.Canceled", res[0])
	}
}

// TestSweepCutShortReportsEveryTarget: a sweep whose context ends
// mid-way still accounts for every address. A job the pool never
// started carries its address and the context's error, never a zero
// result that reads as "probed, nothing wrong".
func TestSweepCutShortReportsEveryTarget(t *testing.T) {
	farm := liveFarm(t)
	s := New(Config{Concurrency: 2, RatePerSecond: 50})
	defer s.Close()
	addrs := make([]string, 200)
	for i := range addrs {
		addrs[i] = farm.Servers[0].TLSAddr
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	certs := s.FetchCerts(ctx, addrs)
	heads := s.FetchHeaders(ctx, addrs)
	cutShort := 0
	for i := range addrs {
		c, h := certs[i], heads[i]
		if c.Addr != addrs[i] || (c.Err == nil) == (c.Chain == nil) {
			t.Fatalf("cert result %d = addr %q chain %d err %v: want the address and either a chain or an error", i, c.Addr, len(c.Chain), c.Err)
		}
		if h.Addr != addrs[i] || (h.Err == nil) == (h.Status == 0) {
			t.Fatalf("header result %d = addr %q status %d err %v: want the address and either a response or an error", i, h.Addr, h.Status, h.Err)
		}
		if errors.Is(c.Err, context.DeadlineExceeded) {
			cutShort++
		}
	}
	if cutShort == 0 {
		t.Fatal("the 100 ms deadline cut no probe short; the test proved nothing")
	}
}

func TestRateLimiter(t *testing.T) {
	farm := liveFarm(t)
	s := New(Config{RatePerSecond: 10, Concurrency: 8})
	defer s.Close()
	addrs := make([]string, 0, 20)
	for i := 0; i < 20; i++ {
		addrs = append(addrs, farm.Servers[0].TLSAddr)
	}
	start := time.Now()
	s.FetchCerts(context.Background(), addrs)
	elapsed := time.Since(start)
	// 20 probes at 10/s with a 10-token burst needs ≥ ~0.9s.
	if elapsed < 700*time.Millisecond {
		t.Errorf("rate limiter too permissive: 20 probes in %v", elapsed)
	}
}

func TestRetriesRecoverFlakyServer(t *testing.T) {
	// A listener that rejects the first TLS attempt (closing the
	// connection) and serves properly afterwards: one retry must
	// recover it.
	farm := liveFarm(t)
	target := farm.Servers[0]

	flaky := newFlakyProxy(t, target.TLSAddr, 1)
	noRetry := New(Config{Timeout: time.Second})
	defer noRetry.Close()
	if res := noRetry.FetchCerts(context.Background(), []string{flaky.addr()}); res[0].Err == nil {
		t.Fatal("first attempt should fail through the flaky proxy")
	}

	flaky2 := newFlakyProxy(t, target.TLSAddr, 1)
	withRetry := New(Config{Timeout: time.Second, Retries: 2, RetryBackoff: 10 * time.Millisecond})
	defer withRetry.Close()
	res := withRetry.FetchCerts(context.Background(), []string{flaky2.addr()})
	if res[0].Err != nil {
		t.Fatalf("retry did not recover: %v", res[0].Err)
	}
	if leafOrg(res[0]) == "" {
		t.Fatal("no certificate fetched after retry")
	}
}

// flakyProxy drops the first n connections, then pipes transparently.
type flakyProxy struct {
	ln    net.Listener
	drops int32
}

func newFlakyProxy(t *testing.T, backend string, drops int32) *flakyProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &flakyProxy{ln: ln, drops: drops}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			if atomic.AddInt32(&p.drops, -1) >= 0 {
				conn.Close()
				continue
			}
			go func(c net.Conn) {
				defer c.Close()
				up, err := net.Dial("tcp", backend)
				if err != nil {
					return
				}
				defer up.Close()
				done := make(chan struct{}, 2)
				go func() { io.Copy(up, c); done <- struct{}{} }() //nolint:errcheck
				go func() { io.Copy(c, up); done <- struct{}{} }() //nolint:errcheck
				<-done
			}(conn)
		}
	}()
	return p
}

func (p *flakyProxy) addr() string { return p.ln.Addr().String() }
