package worldsim

import (
	"testing"

	"offnetscope/internal/certmodel"
	"offnetscope/internal/hg"
	"offnetscope/internal/netmodel"
	"offnetscope/internal/timeline"
)

var testWorld = func() *World {
	w, err := New(Config{Seed: 42, Scale: 0.03})
	if err != nil {
		panic(err)
	}
	return w
}()

func last() timeline.Snapshot { return timeline.Snapshot(timeline.Count() - 1) }

func TestWorldConstruction(t *testing.T) {
	w := testWorld
	if w.Graph().NumASes() == 0 {
		t.Fatal("empty graph")
	}
	for _, h := range hg.All() {
		if len(w.OnNetASes(h.ID)) == 0 {
			t.Errorf("%v has no on-net AS", h.ID)
		}
		for _, as := range w.OnNetASes(h.ID) {
			id, ok := w.HGOfOnNetAS(as)
			if !ok || id != h.ID {
				t.Errorf("HGOfOnNetAS(%d) = %v, %v", as, id, ok)
			}
			// On-net ASes must be discoverable by org keyword (§A.2).
			found := false
			for _, match := range w.Orgs().ASesMatching([]string{h.Keyword}, last())[0] {
				if match == as {
					found = true
				}
			}
			if !found {
				t.Errorf("%v on-net AS %d not found by org keyword", h.ID, as)
			}
		}
	}
}

func TestFootprintShapes(t *testing.T) {
	w := testWorld
	count := func(id hg.ID, s timeline.Snapshot) int { return len(w.TrueOffNetASes(id, s)) }

	// Google grows monotonically-ish and is the largest at the end.
	if count(hg.Google, 0) >= count(hg.Google, last()) {
		t.Error("Google footprint should grow")
	}
	for _, id := range []hg.ID{hg.Netflix, hg.Facebook, hg.Akamai} {
		if count(hg.Google, last()) < count(id, last()) {
			t.Errorf("Google should have the largest 2021 footprint, but %v is bigger", id)
		}
	}
	// Facebook starts at zero (CDN launched summer 2016).
	if count(hg.Facebook, 0) != 0 {
		t.Errorf("Facebook 2013 footprint = %d, want 0", count(hg.Facebook, 0))
	}
	if count(hg.Facebook, last()) == 0 {
		t.Error("Facebook 2021 footprint empty")
	}
	// Akamai peaks around 2018-04 (snapshot 18) then declines.
	peak := count(hg.Akamai, 18)
	if peak <= count(hg.Akamai, 0) {
		t.Error("Akamai should grow until 2018")
	}
	if count(hg.Akamai, last()) >= peak {
		t.Errorf("Akamai should shrink after 2018: peak %d, end %d", peak, count(hg.Akamai, last()))
	}
	// Cloudflare has no genuine off-nets.
	if count(hg.Cloudflare, last()) != 0 {
		t.Errorf("Cloudflare true off-nets = %d, want 0", count(hg.Cloudflare, last()))
	}
	// The no-off-net group stays at zero; their service is on-net only.
	for _, id := range []hg.ID{hg.Microsoft, hg.Hulu, hg.Disney, hg.Yahoo, hg.Fastly} {
		if count(id, last()) != 0 {
			t.Errorf("%v true off-nets = %d, want 0", id, count(id, last()))
		}
	}
	// Service-present footprints exist where the paper reports them.
	if len(w.TrueServicePresentASes(hg.Apple, last())) == 0 {
		t.Error("Apple should have service-present ASes (third-party CDN)")
	}
	if len(w.TrueServicePresentASes(hg.Cloudflare, last())) == 0 {
		t.Error("Cloudflare should have customer-origin ASes")
	}
}

func TestDeploymentSpansWellFormed(t *testing.T) {
	w := testWorld
	for _, h := range hg.All() {
		for as, sp := range w.deployments[h.ID] {
			if sp.from > sp.to {
				t.Fatalf("%v AS %d has inverted span %v-%v", h.ID, as, sp.from, sp.to)
			}
			if _, isHG := w.hgOfAS[as]; isHG {
				t.Fatalf("%v deployed inside an on-net AS %d", h.ID, as)
			}
		}
	}
}

func TestHostsRoundTrip(t *testing.T) {
	w := testWorld
	s := timeline.Snapshot(20)
	seen := make(map[netmodel.IP]bool)
	n := 0
	w.Hosts(s, func(h *Host) bool {
		n++
		if seen[h.IP] {
			t.Fatalf("duplicate host IP %v", h.IP)
		}
		seen[h.IP] = true
		if n%17 != 0 {
			return true // spot-check a subset for speed
		}
		back, ok := w.HostAt(h.IP, s)
		if !ok {
			t.Fatalf("HostAt(%v) missed an enumerated host", h.IP)
		}
		if back.TrueAS != h.TrueAS || back.HTTPSUp != h.HTTPSUp || back.HTTPUp != h.HTTPUp {
			t.Fatalf("HostAt(%v) disagrees with enumeration", h.IP)
		}
		if (back.Chain == nil) != (h.Chain == nil) {
			t.Fatalf("HostAt(%v) chain presence disagrees", h.IP)
		}
		if back.Chain != nil && back.Chain.Leaf().Fingerprint() != h.Chain.Leaf().Fingerprint() {
			t.Fatalf("HostAt(%v) returns a different certificate", h.IP)
		}
		return true
	})
	if n < 1000 {
		t.Fatalf("only %d hosts at snapshot 20; world too empty", n)
	}
}

func TestHostGrowthOverTime(t *testing.T) {
	w := testWorld
	countAt := func(s timeline.Snapshot) int {
		n := 0
		w.Hosts(s, func(*Host) bool { n++; return true })
		return n
	}
	early, lateN := countAt(0), countAt(last())
	if lateN < early*2 {
		t.Errorf("host population should grow substantially: %d → %d", early, lateN)
	}
}

func TestOffNetCertsSubsetOfOnNet(t *testing.T) {
	w := testWorld
	s := last()
	for _, id := range hg.Top4() {
		onNames := make(map[string]bool)
		for g := 0; g < strategies[id].certGroups; g++ {
			for _, d := range groupDomains(hg.Get(id), g) {
				onNames[d] = true
			}
		}
		for _, as := range w.TrueOffNetASes(id, s)[:min(10, len(w.TrueOffNetASes(id, s)))] {
			ip := w.offNetIP(as, id, 0)
			h, ok := w.HostAt(ip, s)
			if !ok {
				t.Fatalf("%v off-net at %v not responsive", id, ip)
			}
			if h.Chain == nil {
				t.Fatalf("%v off-net missing certificate", id)
			}
			if err := certmodel.Verify(h.Chain, s.MidTime(), w.TrustStore()); err != nil {
				t.Fatalf("%v off-net cert invalid: %v", id, err)
			}
			if !h.Chain.Leaf().MatchesOrganization(hg.Get(id).Keyword) {
				t.Fatalf("%v off-net cert org = %q", id, h.Chain.Leaf().Subject.Organization)
			}
			for _, d := range h.Chain.LeafDNSNames() {
				if !onNames[d] {
					t.Fatalf("%v off-net dNSName %q not served on-net", id, d)
				}
			}
		}
	}
}

func TestNetflixExpiredEra(t *testing.T) {
	w := testWorld
	inEra := timeline.Snapshot(18)  // 2018-04
	preEra := timeline.Snapshot(10) // 2016-04
	postEra := last()

	classify := func(s timeline.Snapshot) (valid, expired, httpOnly, total int) {
		for _, as := range w.TrueOffNetASes(hg.Netflix, s) {
			n := w.offNetIPCount(hg.Netflix, as)
			for i := 0; i < n; i++ {
				h, ok := w.HostAt(w.offNetIP(as, hg.Netflix, i), s)
				if !ok {
					continue
				}
				total++
				switch {
				case !h.HTTPSUp && h.HTTPUp:
					httpOnly++
				case h.Chain != nil && certmodel.Reason(certmodel.Verify(h.Chain, s.MidTime(), w.TrustStore())) == certmodel.ReasonExpired:
					expired++
				case h.Chain != nil:
					valid++
				}
			}
		}
		return
	}

	if _, expired, httpOnly, total := classify(preEra); expired > 0 || httpOnly > 0 || total == 0 {
		t.Errorf("pre-era: expired=%d httpOnly=%d total=%d", expired, httpOnly, total)
	}
	valid, expired, httpOnly, total := classify(inEra)
	if total == 0 || expired == 0 || httpOnly == 0 {
		t.Fatalf("era anomalies missing: valid=%d expired=%d httpOnly=%d", valid, expired, httpOnly)
	}
	fracExpired := float64(expired) / float64(total)
	fracHTTP := float64(httpOnly) / float64(total)
	if fracExpired < 0.4 || fracExpired > 0.75 {
		t.Errorf("expired fraction = %v, want ~0.6", fracExpired)
	}
	if fracHTTP < 0.15 || fracHTTP > 0.4 {
		t.Errorf("http-only fraction = %v, want ~0.27", fracHTTP)
	}
	if _, expired, httpOnly, _ := classify(postEra); expired > 0 || httpOnly > 0 {
		t.Errorf("post-era anomalies remain: expired=%d httpOnly=%d", expired, httpOnly)
	}
}

func TestBackgroundValidityMix(t *testing.T) {
	w := testWorld
	s := last()
	var valid, invalid, total int
	w.Hosts(s, func(h *Host) bool {
		if _, isOn := w.HGOfOnNetAS(h.TrueAS); isOn {
			return true
		}
		if h.Chain == nil || !h.HTTPSUp {
			return true
		}
		org := h.Chain.Leaf().Subject.Organization
		isHG := false
		for _, x := range hg.All() {
			if h.Chain.Leaf().MatchesOrganization(x.Keyword) {
				isHG = true
			}
			_ = x
		}
		if isHG && org != "" {
			// skip HG-related hosts; we want the background mix
		}
		total++
		if certmodel.Verify(h.Chain, s.MidTime(), w.TrustStore()) == nil {
			valid++
		} else {
			invalid++
		}
		return true
	})
	frac := float64(invalid) / float64(total)
	// The paper: "more than one third of the hosts returned invalid
	// certificates". HG hosts are all valid, so the overall rate lands a
	// bit below the background 33%.
	if frac < 0.2 || frac > 0.45 {
		t.Errorf("invalid cert fraction = %v, want ~0.3", frac)
	}
}

func TestProbeCrossDomain(t *testing.T) {
	w := testWorld
	s := last()
	// A Google off-net must validate Google domains and fail Netflix's.
	gASes := w.TrueOffNetASes(hg.Google, s)
	if len(gASes) == 0 {
		t.Fatal("no Google off-nets")
	}
	ip := w.offNetIP(gASes[0], hg.Google, 0)
	if res := w.Probe(ip, "www.google.com", s); !res.Reachable || !res.ServesDomain {
		t.Error("Google off-net should serve www.google.com")
	}
	if res := w.Probe(ip, "www.netflix.com", s); res.ServesDomain {
		t.Error("Google off-net must not serve www.netflix.com")
	}
	// Akamai off-nets serve their customers' domains (Apple, LinkedIn).
	aASes := w.TrueOffNetASes(hg.Akamai, s)
	if len(aASes) == 0 {
		t.Fatal("no Akamai off-nets")
	}
	aip := w.offNetIP(aASes[0], hg.Akamai, 0)
	if res := w.Probe(aip, "www.apple.com", s); !res.ServesDomain {
		t.Error("Akamai off-net should serve Apple content")
	}
	if res := w.Probe(aip, "www.linkedin.com", s); !res.ServesDomain {
		t.Error("Akamai off-net should serve LinkedIn content")
	}
	if res := w.Probe(aip, "www.google.com", s); res.ServesDomain {
		t.Error("Akamai off-net must not serve Google content")
	}
	// Unreachable space.
	if res := w.Probe(netmodel.MustParseIP("0.0.0.5"), "x.example", s); res.Reachable {
		t.Error("unallocated space should be unreachable")
	}
}

func TestCloudflareCustomerCerts(t *testing.T) {
	w := testWorld
	s := last()
	custs := w.TrueServicePresentASes(hg.Cloudflare, s)
	if len(custs) == 0 {
		t.Fatal("no Cloudflare customers")
	}
	kinds := map[cfCustomerKind]int{}
	for _, as := range custs {
		kinds[w.cfCustomerKindOf(uint64(as))]++
		h, ok := w.HostAt(w.serviceIP(as, hg.Cloudflare, 0), s)
		if !ok || h.Chain == nil {
			t.Fatalf("Cloudflare customer origin at AS %d not responsive", as)
		}
		if !h.Chain.Leaf().MatchesOrganization("cloudflare") {
			t.Fatalf("customer cert org = %q", h.Chain.Leaf().Subject.Organization)
		}
		if err := certmodel.Verify(h.Chain, s.MidTime(), w.TrustStore()); err != nil {
			t.Fatalf("customer cert invalid: %v", err)
		}
	}
	if kinds[cfUniversal] == 0 {
		t.Error("no universal customer certs")
	}
	if len(custs) > 10 && kinds[cfEnterprise] == 0 {
		t.Error("no enterprise customer certs")
	}
}

func TestDeterminism(t *testing.T) {
	w2, err := New(Config{Seed: 42, Scale: 0.03})
	if err != nil {
		t.Fatal(err)
	}
	s := timeline.Snapshot(15)
	var ips1, ips2 []netmodel.IP
	var fps1, fps2 []certmodel.Fingerprint
	collect := func(w *World, ips *[]netmodel.IP, fps *[]certmodel.Fingerprint) {
		w.Hosts(s, func(h *Host) bool {
			*ips = append(*ips, h.IP)
			if h.Chain != nil {
				*fps = append(*fps, h.Chain.Leaf().Fingerprint())
			}
			return len(*ips) < 5000
		})
	}
	collect(testWorld, &ips1, &fps1)
	collect(w2, &ips2, &fps2)
	if len(ips1) != len(ips2) || len(fps1) != len(fps2) {
		t.Fatalf("different host counts: %d/%d vs %d/%d", len(ips1), len(fps1), len(ips2), len(fps2))
	}
	for i := range ips1 {
		if ips1[i] != ips2[i] {
			t.Fatalf("host %d IP differs", i)
		}
	}
	for i := range fps1 {
		if fps1[i] != fps2[i] {
			t.Fatalf("host %d certificate differs", i)
		}
	}
}

func TestGroupSharesSumToOne(t *testing.T) {
	for _, h := range hg.All() {
		st := strategies[h.ID]
		for _, s := range []timeline.Snapshot{0, 15, 30} {
			shares := groupShares(st, s)
			var sum float64
			for _, x := range shares {
				sum += x
			}
			if sum < 0.999 || sum > 1.001 {
				t.Fatalf("%v shares sum to %v at %v", h.ID, sum, s)
			}
		}
	}
}

func TestFacebookDisaggregationOverTime(t *testing.T) {
	st := strategies[hg.Facebook]
	early := groupShares(st, 2)
	late := groupShares(st, 30)
	if early[0] <= late[0] {
		t.Errorf("Facebook top group share should shrink: %v → %v", early[0], late[0])
	}
	if early[0] < 0.5 {
		t.Errorf("Facebook 2014 top group share = %v, want dominant", early[0])
	}
}

func TestCertRenewalChangesSerial(t *testing.T) {
	w := testWorld
	// Google renews quarterly: adjacent snapshots get different serials.
	c1 := w.hgGroupCert(hg.Google, 0, 10).Leaf()
	c2 := w.hgGroupCert(hg.Google, 0, 11).Leaf()
	if c1.SerialNumber == c2.SerialNumber {
		t.Error("Google quarterly renewal should change the serial")
	}
	// Within one snapshot the certificate is stable.
	c3 := w.hgGroupCert(hg.Google, 0, 10).Leaf()
	if c1.Fingerprint() != c3.Fingerprint() {
		t.Error("same (group, snapshot) must mint the identical certificate")
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestHideAndSeekCountermeasures(t *testing.T) {
	hidden, err := New(Config{Seed: 42, Scale: 0.03, Hide: HideAndSeek{
		NullDefaultCertFrac: 1.0,
		StripOrganization:   true,
		AnonymizeHeaders:    true,
	}})
	if err != nil {
		t.Fatal(err)
	}
	s := last()
	for _, as := range hidden.TrueOffNetASes(hg.Google, s)[:3] {
		h, ok := hidden.HostAt(hidden.offNetIP(as, hg.Google, 0), s)
		if !ok {
			t.Fatal("off-net gone entirely")
		}
		if h.Chain != nil {
			t.Error("null-default-cert countermeasure leaked a chain")
		}
		for _, hd := range h.HTTPSHeaders {
			if hg.Get(hg.Google).MatchesHeaders([]hg.Header{hd}) {
				t.Errorf("identifying header survived anonymization: %+v", hd)
			}
		}
	}
	// Strip-organization alone keeps the chain but blanks the org.
	stripped, err := New(Config{Seed: 42, Scale: 0.03, Hide: HideAndSeek{StripOrganization: true}})
	if err != nil {
		t.Fatal(err)
	}
	for _, as := range stripped.TrueOffNetASes(hg.Google, s)[:3] {
		h, ok := stripped.HostAt(stripped.offNetIP(as, hg.Google, 0), s)
		if !ok || h.Chain == nil {
			t.Fatal("stripped off-net should still present a chain")
		}
		if h.Chain.Leaf().Subject.Organization != "" {
			t.Errorf("organization not stripped: %q", h.Chain.Leaf().Subject.Organization)
		}
		if err := certmodel.Verify(h.Chain, s.MidTime(), stripped.TrustStore()); err != nil {
			t.Errorf("stripped chain must still verify: %v", err)
		}
	}
}
