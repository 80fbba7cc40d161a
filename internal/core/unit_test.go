package core

// Hand-crafted micro-corpus tests: every §4 rule exercised on records
// built by hand, with a toy IP-to-AS map — no simulator involved, so a
// failure here localizes the pipeline logic itself.

import (
	"reflect"
	"testing"
	"time"

	"offnetscope/internal/astopo"
	"offnetscope/internal/certmodel"
	"offnetscope/internal/corpus"
	"offnetscope/internal/hg"
	"offnetscope/internal/netmodel"
	"offnetscope/internal/rng"
	"offnetscope/internal/timeline"
)

// toyMapper is a fixed IP→AS map.
type toyMapper map[netmodel.IP][]astopo.ASN

func (m toyMapper) Lookup(ip netmodel.IP) []astopo.ASN { return m[ip] }

// toyWorld builds a minimal dataset: AS 1 is Google's on-net AS, ASes
// 2..9 are eyeballs.
type toyWorld struct {
	auth   *certmodel.Authority
	trust  *certmodel.TrustStore
	orgs   *astopo.OrgDB
	mapper toyMapper
	snap   *corpus.Snapshot
	at     timeline.Snapshot
}

func newToyWorld(t *testing.T) *toyWorld {
	t.Helper()
	from := time.Date(2014, 1, 1, 0, 0, 0, 0, time.UTC)
	to := time.Date(2030, 1, 1, 0, 0, 0, 0, time.UTC)
	tw := &toyWorld{
		auth:   certmodel.NewAuthority("ToyCA", 2, from, to, rng.New(9)),
		trust:  certmodel.NewTrustStore(),
		orgs:   astopo.NewOrgDB(),
		mapper: toyMapper{},
		at:     timeline.Snapshot(30),
	}
	if err := tw.trust.AddRoot(tw.auth.Root); err != nil {
		t.Fatal(err)
	}
	tw.orgs.Set(1, 0, "Google LLC")
	for as := astopo.ASN(2); as <= 9; as++ {
		tw.orgs.Set(as, 0, "Eyeball ISP")
	}
	tw.snap = &corpus.Snapshot{Vendor: corpus.Rapid7, Snapshot: tw.at}
	return tw
}

func (tw *toyWorld) leaf(org string, dns ...string) certmodel.Chain {
	return tw.auth.IssueLeaf(certmodel.LeafSpec{
		Organization: org, CommonName: dns[0], DNSNames: dns,
		NotBefore: time.Date(2021, 1, 1, 0, 0, 0, 0, time.UTC),
		NotAfter:  time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC),
	})
}

func (tw *toyWorld) addCert(ip uint32, as astopo.ASN, chain certmodel.Chain) {
	addr := netmodel.IP(ip)
	tw.mapper[addr] = []astopo.ASN{as}
	tw.snap.Certs = append(tw.snap.Certs, corpus.CertRecord{IP: addr, Chain: chain})
}

func (tw *toyWorld) addHeaders(ip uint32, https bool, headers ...hg.Header) {
	rec := corpus.HeaderRecord{IP: netmodel.IP(ip), Headers: headers}
	if https {
		tw.snap.HTTPS = append(tw.snap.HTTPS, rec)
	} else {
		tw.snap.HTTP = append(tw.snap.HTTP, rec)
	}
}

func (tw *toyWorld) pipeline(opts Options) *Pipeline {
	return &Pipeline{
		Trust:  tw.trust,
		Orgs:   tw.orgs,
		Mapper: func(timeline.Snapshot) IPMapper { return tw.mapper },
		Opts:   opts,
	}
}

func TestUnitHappyPath(t *testing.T) {
	tw := newToyWorld(t)
	// On-net: AS 1 serves *.google.com + *.googlevideo.com.
	tw.addCert(100, 1, tw.leaf("Google LLC", "*.google.com", "*.googlevideo.com"))
	// Off-net in AS 2: subset of on-net names, gws header.
	tw.addCert(200, 2, tw.leaf("Google LLC", "*.googlevideo.com"))
	tw.addHeaders(200, true, hg.Header{Name: "Server", Value: "gws"})

	res := tw.pipeline(DefaultOptions()).Run(tw.snap)
	g := res.PerHG[hg.Google]
	if len(g.OnNetASes) != 1 || g.OnNetASes[0] != 1 {
		t.Fatalf("on-net ASes = %v", g.OnNetASes)
	}
	if _, ok := g.DNSNames["*.googlevideo.com"]; !ok {
		t.Fatal("fingerprint missing googlevideo")
	}
	if len(g.CandidateASes) != 1 || len(g.ConfirmedASes) != 1 {
		t.Fatalf("candidates=%d confirmed=%d, want 1/1", len(g.CandidateASes), len(g.ConfirmedASes))
	}
	if _, ok := g.ConfirmedASes[2]; !ok {
		t.Fatal("AS 2 not confirmed")
	}
}

func TestUnitSubsetRuleRejectsForeignName(t *testing.T) {
	tw := newToyWorld(t)
	tw.addCert(100, 1, tw.leaf("Google LLC", "*.google.com"))
	// Candidate carries a name never seen on-net: a shared certificate.
	tw.addCert(200, 2, tw.leaf("Google LLC", "*.google.com", "*.partner.example"))
	tw.addHeaders(200, true, hg.Header{Name: "Server", Value: "gws"})

	res := tw.pipeline(DefaultOptions()).Run(tw.snap)
	if n := len(res.PerHG[hg.Google].CandidateASes); n != 0 {
		t.Fatalf("shared cert accepted: %d candidates", n)
	}
	// Ablation: disabling the rule admits it.
	loose := tw.pipeline(Options{HeaderMode: HeadersEither, DisableDNSNameFilter: true}).Run(tw.snap)
	if n := len(loose.PerHG[hg.Google].CandidateASes); n != 1 {
		t.Fatalf("ablated pipeline should admit it: %d", n)
	}
}

func TestUnitOnNetExcludedFromCandidates(t *testing.T) {
	tw := newToyWorld(t)
	tw.addCert(100, 1, tw.leaf("Google LLC", "*.google.com"))
	tw.addCert(101, 1, tw.leaf("Google LLC", "*.google.com"))
	res := tw.pipeline(DefaultOptions()).Run(tw.snap)
	g := res.PerHG[hg.Google]
	if g.OnNetIPs != 2 {
		t.Fatalf("on-net IPs = %d", g.OnNetIPs)
	}
	if len(g.CandidateASes) != 0 {
		t.Fatal("on-net records must not be candidates")
	}
}

func TestUnitUnmappedIPSkipped(t *testing.T) {
	tw := newToyWorld(t)
	tw.addCert(100, 1, tw.leaf("Google LLC", "*.google.com"))
	// A record whose IP has no IP-to-AS mapping (the paper covers only
	// ~76% of routable space).
	addr := netmodel.IP(999)
	tw.snap.Certs = append(tw.snap.Certs, corpus.CertRecord{IP: addr, Chain: tw.leaf("Google LLC", "*.google.com")})

	res := tw.pipeline(DefaultOptions()).Run(tw.snap)
	if n := len(res.PerHG[hg.Google].CandidateASes); n != 0 {
		t.Fatalf("unmapped record produced %d candidate ASes", n)
	}
}

func TestUnitSelfSignedExcluded(t *testing.T) {
	tw := newToyWorld(t)
	tw.addCert(100, 1, tw.leaf("Google LLC", "*.google.com"))
	imp := tw.auth.IssueSelfSigned(certmodel.LeafSpec{
		Organization: "Google LLC", CommonName: "*.google.com",
		DNSNames:  []string{"*.google.com"},
		NotBefore: time.Date(2021, 1, 1, 0, 0, 0, 0, time.UTC),
		NotAfter:  time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC),
	})
	tw.addCert(200, 2, imp)
	tw.addHeaders(200, true, hg.Header{Name: "Server", Value: "gws"})

	res := tw.pipeline(DefaultOptions()).Run(tw.snap)
	if n := len(res.PerHG[hg.Google].CandidateASes); n != 0 {
		t.Fatalf("self-signed impostor accepted: %d", n)
	}
	if res.InvalidByReason[certmodel.ReasonSelfSigned] != 1 {
		t.Fatalf("invalid stats = %v", res.InvalidByReason)
	}
}

// TestUnitInvalidChainsAllocateNothing pins what §4.1 costs for the
// third of scanned chains that fail: once the organization memo, the AS
// set and the reason tallies hold their keys, validating a batch of
// invalid chains whose organizations carry no keyword allocates nothing.
func TestUnitInvalidChainsAllocateNothing(t *testing.T) {
	tw := newToyWorld(t)
	spec := certmodel.LeafSpec{
		Organization: "Eyeball ISP", CommonName: "cpe.example", DNSNames: []string{"cpe.example"},
		NotBefore: time.Date(2021, 1, 1, 0, 0, 0, 0, time.UTC),
		NotAfter:  time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC),
	}
	expired := spec
	expired.NotAfter = time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	foreign := certmodel.NewAuthority("ForeignCA", 1, spec.NotBefore, spec.NotAfter, rng.New(10))
	tw.addCert(200, 2, tw.auth.IssueLeaf(expired))
	tw.addCert(201, 3, tw.auth.IssueSelfSigned(spec))
	tw.addCert(202, 4, foreign.IssueLeaf(spec))

	p := tw.pipeline(DefaultOptions())
	res := newResult(tw.snap)
	asSet := make(map[astopo.ASN]struct{})
	orgs := make(orgMatcher)
	mapper := p.Mapper(tw.at)
	var records []record
	allocs := testing.AllocsPerRun(100, func() {
		records = p.validateBatch(res, asSet, orgs, nil, tw.snap.Certs, tw.snap.ScanTime(), mapper)
	})
	if allocs != 0 {
		t.Errorf("validateBatch allocated %.0f objects per batch of %d invalid chains", allocs, len(tw.snap.Certs))
	}
	if len(records) != 0 || res.ValidCertIPs != 0 {
		t.Fatalf("records = %d, valid = %d; want none", len(records), res.ValidCertIPs)
	}
	runs := res.TotalCertIPs / len(tw.snap.Certs)
	want := map[string]int{certmodel.ReasonExpired: runs, certmodel.ReasonSelfSigned: runs, certmodel.ReasonUntrusted: runs}
	if !reflect.DeepEqual(res.InvalidByReason, want) {
		t.Errorf("invalid by reason = %v, want %v", res.InvalidByReason, want)
	}
}

func TestUnitMOASAttributesAllOrigins(t *testing.T) {
	tw := newToyWorld(t)
	tw.addCert(100, 1, tw.leaf("Google LLC", "*.google.com"))
	chain := tw.leaf("Google LLC", "*.google.com")
	addr := netmodel.IP(300)
	tw.mapper[addr] = []astopo.ASN{3, 4} // MOAS prefix
	tw.snap.Certs = append(tw.snap.Certs, corpus.CertRecord{IP: addr, Chain: chain})
	tw.addHeaders(300, true, hg.Header{Name: "Server", Value: "gws"})

	res := tw.pipeline(DefaultOptions()).Run(tw.snap)
	g := res.PerHG[hg.Google]
	if len(g.ConfirmedASes) != 2 {
		t.Fatalf("MOAS should confirm both origins, got %v", g.SortedConfirmedASes())
	}
}

func TestUnitNetflixNginxRule(t *testing.T) {
	tw := newToyWorld(t)
	tw.orgs.Set(10, 0, "Netflix, Inc.")
	tw.addCert(100, 10, tw.leaf("Netflix, Inc.", "*.nflxvideo.net"))
	tw.addCert(200, 2, tw.leaf("Netflix, Inc.", "*.nflxvideo.net"))
	tw.addHeaders(200, true, hg.Header{Name: "Server", Value: "nginx"})

	res := tw.pipeline(DefaultOptions()).Run(tw.snap)
	if len(res.PerHG[hg.Netflix].ConfirmedASes) != 1 {
		t.Fatal("cert + default nginx should confirm Netflix")
	}
	// Netflix's own header fingerprint does not match nginx, so the §4.4
	// rule is what confirmed it.
	if hg.Get(hg.Netflix).MatchesHeaders([]hg.Header{{Name: "Server", Value: "nginx"}}) {
		t.Fatal("Netflix's header fingerprint matches nginx by itself")
	}
	// But nginx must never confirm Google.
	if len(res.PerHG[hg.Google].ConfirmedASes) != 0 {
		t.Fatal("nginx confirmed a non-Netflix hypergiant")
	}
}

func TestUnitConflictPriority(t *testing.T) {
	tw := newToyWorld(t)
	tw.orgs.Set(11, 0, "Apple Inc.")
	tw.addCert(100, 11, tw.leaf("Apple Inc.", "*.apple.com"))
	// Apple cert on a box answering with BOTH Akamai and Apple headers —
	// a cache miss through an Akamai edge (§7).
	tw.addCert(200, 2, tw.leaf("Apple Inc.", "*.apple.com"))
	tw.addHeaders(200, true,
		hg.Header{Name: "Server", Value: "AkamaiGHost"},
		hg.Header{Name: "CDNUUID", Value: "abc"},
	)

	res := tw.pipeline(DefaultOptions()).Run(tw.snap)
	if len(res.PerHG[hg.Apple].ConfirmedASes) != 0 {
		t.Fatal("edge-CDN conflict should suppress Apple confirmation")
	}
	loose := tw.pipeline(Options{HeaderMode: HeadersEither, DisableConflictPriority: true}).Run(tw.snap)
	if len(loose.PerHG[hg.Apple].ConfirmedASes) != 1 {
		t.Fatal("without priority the Apple header should confirm")
	}
}

func TestUnitCloudflareFilter(t *testing.T) {
	tw := newToyWorld(t)
	tw.orgs.Set(12, 0, "Cloudflare, Inc.")
	// Cloudflare's edge serves the universal certificate on-net...
	uni := tw.leaf("Cloudflare, Inc.", "sni12345.cloudflaressl.com", "*.customer.example")
	tw.addCert(100, 12, uni)
	// ...and the customer's origin in AS 2 serves the identical names.
	tw.addCert(200, 2, tw.leaf("Cloudflare, Inc.", "sni12345.cloudflaressl.com", "*.customer.example"))
	tw.addHeaders(200, true, hg.Header{Name: "Server", Value: "cloudflare"})

	res := tw.pipeline(DefaultOptions()).Run(tw.snap)
	if n := len(res.PerHG[hg.Cloudflare].CandidateASes); n != 0 {
		t.Fatalf("universal cert survived the filter: %d", n)
	}
	loose := tw.pipeline(Options{HeaderMode: HeadersEither, DisableCloudflareFilter: true}).Run(tw.snap)
	if n := len(loose.PerHG[hg.Cloudflare].CandidateASes); n != 1 {
		t.Fatalf("without the filter the origin passes the subset rule: %d", n)
	}
}

func TestUnitExpiredTracking(t *testing.T) {
	tw := newToyWorld(t)
	tw.orgs.Set(10, 0, "Netflix, Inc.")
	tw.addCert(100, 10, tw.leaf("Netflix, Inc.", "*.nflxvideo.net"))
	expired := tw.auth.IssueLeaf(certmodel.LeafSpec{
		Organization: "Netflix, Inc.", CommonName: "*.nflxvideo.net",
		DNSNames:  []string{"*.nflxvideo.net"},
		NotBefore: time.Date(2016, 1, 1, 0, 0, 0, 0, time.UTC),
		NotAfter:  time.Date(2017, 4, 1, 0, 0, 0, 0, time.UTC),
	})
	tw.addCert(200, 2, expired)

	res := tw.pipeline(DefaultOptions()).Run(tw.snap)
	nf := res.PerHG[hg.Netflix]
	if len(nf.CandidateASes) != 0 {
		t.Fatal("expired cert must not be a candidate by default")
	}
	if len(nf.ExpiredASes) != 1 {
		t.Fatalf("expired evidence not tracked: %v", nf.ExpiredASes)
	}
}

func TestUnitHeaderModes(t *testing.T) {
	tw := newToyWorld(t)
	tw.addCert(100, 1, tw.leaf("Google LLC", "*.google.com"))
	// AS 2: HTTPS says gws, HTTP says nginx → Either yes, Both no.
	tw.addCert(200, 2, tw.leaf("Google LLC", "*.google.com"))
	tw.addHeaders(200, true, hg.Header{Name: "Server", Value: "gws"})
	tw.addHeaders(200, false, hg.Header{Name: "Server", Value: "nginx"})
	// AS 3: both ports say gws → Either and Both.
	tw.addCert(300, 3, tw.leaf("Google LLC", "*.google.com"))
	tw.addHeaders(300, true, hg.Header{Name: "Server", Value: "gws"})
	tw.addHeaders(300, false, hg.Header{Name: "Server", Value: "gws"})
	// AS 4: no header records at all → candidate only.
	tw.addCert(400, 4, tw.leaf("Google LLC", "*.google.com"))

	res := tw.pipeline(DefaultOptions()).Run(tw.snap)
	g := res.PerHG[hg.Google]
	if len(g.CandidateASes) != 3 {
		t.Fatalf("candidates = %d", len(g.CandidateASes))
	}
	if len(g.ConfirmedByEitherASes) != 2 {
		t.Fatalf("either = %v", g.ConfirmedByEitherASes)
	}
	if len(g.ConfirmedByBothASes) != 1 {
		t.Fatalf("both = %v", g.ConfirmedByBothASes)
	}
	certsOnly := tw.pipeline(Options{HeaderMode: CertsOnly}).Run(tw.snap)
	if len(certsOnly.PerHG[hg.Google].ConfirmedASes) != 3 {
		t.Fatal("certs-only mode should confirm every candidate")
	}
}

func TestUnitOrgRenameTracked(t *testing.T) {
	tw := newToyWorld(t)
	// AS 1 was "Google Inc." until 2017-04, then "Google LLC".
	tw.orgs = astopo.NewOrgDB()
	tw.orgs.Set(1, 0, "Google Inc.")
	tw.orgs.Set(1, 14, "Google LLC")
	tw.addCert(100, 1, tw.leaf("Google LLC", "*.google.com"))

	// Keyword matching spans the rename at any snapshot.
	for _, s := range []timeline.Snapshot{0, 14, 30} {
		tw.snap.Snapshot = s
		// Reissue a chain valid at the early scan time too.
		tw.snap.Certs[0].Chain = tw.auth.IssueLeaf(certmodel.LeafSpec{
			Organization: "Google LLC", CommonName: "*.google.com",
			DNSNames:  []string{"*.google.com"},
			NotBefore: time.Date(2013, 1, 1, 0, 0, 0, 0, time.UTC),
			NotAfter:  time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC),
		})
		res := tw.pipeline(DefaultOptions()).Run(tw.snap)
		if got := res.PerHG[hg.Google].OnNetASes; len(got) != 1 || got[0] != 1 {
			t.Fatalf("at %v on-net ASes = %v", s, got)
		}
	}
}

// TestUnitMultiKeywordOrganization: an organization naming two
// hypergiants belongs to both. It feeds each one's fingerprint where
// it is on-net and each one's candidates where it is not, and Fig 2's
// split counts it once, under the first in hg.All() order. Keywords
// match case-insensitively.
func TestUnitMultiKeywordOrganization(t *testing.T) {
	tw := newToyWorld(t)
	tw.orgs.Set(10, 0, "Akamai Technologies, Inc.")
	tw.addCert(100, 1, tw.leaf("Google LLC", "*.google.com"))
	// Inside Akamai's on-net AS only: off-net for Google, which comes
	// first in hg.All() order.
	tw.addCert(300, 10, tw.leaf("Google Akamai Services", "*.google.com"))
	tw.addHeaders(300, true, hg.Header{Name: "Server", Value: "gws"})
	tw.addCert(400, 3, tw.leaf("GOOGLE LLC", "*.google.com"))
	tw.addHeaders(400, true, hg.Header{Name: "Server", Value: "gws"})

	res := tw.pipeline(DefaultOptions()).Run(tw.snap)
	if res.HGOnNetCertIPs != 1 || res.HGOffNetCertIPs != 2 {
		t.Errorf("HG cert IPs on-net/off-net = %d/%d, want 1/2", res.HGOnNetCertIPs, res.HGOffNetCertIPs)
	}
	a := res.PerHG[hg.Akamai]
	if len(a.OnNetASes) != 1 || a.OnNetASes[0] != 10 {
		t.Fatalf("Akamai on-net ASes = %v", a.OnNetASes)
	}
	if _, ok := a.DNSNames["*.google.com"]; a.OnNetIPs != 1 || !ok {
		t.Errorf("Akamai on-net IPs = %d, fingerprint %v; want the shared record's", a.OnNetIPs, a.DNSNames)
	}
	if a.CandidateIPs != 0 {
		t.Errorf("Akamai candidates = %v, want none: the record is on-net", a.CandidateIPList)
	}
	g := res.PerHG[hg.Google]
	if want := []netmodel.IP{300, 400}; !reflect.DeepEqual(g.CandidateIPList, want) {
		t.Errorf("Google candidates = %v, want %v", g.CandidateIPList, want)
	}
	if want := map[astopo.ASN]struct{}{3: {}, 10: {}}; !reflect.DeepEqual(g.ConfirmedASes, want) {
		t.Errorf("Google confirmed ASes = %v, want %v", g.ConfirmedASes, want)
	}
}
