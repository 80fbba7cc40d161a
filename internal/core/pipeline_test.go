package core

import (
	"testing"

	"offnetscope/internal/astopo"
	"offnetscope/internal/corpus"
	"offnetscope/internal/hg"
	"offnetscope/internal/scanners"
	"offnetscope/internal/timeline"
	"offnetscope/internal/worldsim"
)

// The core tests run the full measurement loop: world → vendor scan →
// pipeline, then compare the inference against ground truth.

var (
	testWorld = func() *worldsim.World {
		w, err := worldsim.New(worldsim.Config{Seed: 42, Scale: 0.03})
		if err != nil {
			panic(err)
		}
		return w
	}()
	lastSnap = timeline.Snapshot(timeline.Count() - 1)
)

func testPipeline(opts Options) *Pipeline {
	return &Pipeline{
		Trust: testWorld.TrustStore(),
		Orgs:  testWorld.Orgs(),
		Mapper: func(s timeline.Snapshot) IPMapper {
			return testWorld.IP2AS(s)
		},
		Opts: opts,
	}
}

func rapid7At(t testing.TB, s timeline.Snapshot) *corpus.Snapshot {
	t.Helper()
	snap := scanners.Scan(testWorld, scanners.Rapid7Profile(), s)
	if snap == nil {
		t.Fatalf("no Rapid7 data at %v", s)
	}
	return snap
}

// overlap computes |inferred ∩ truth| / |truth| (recall) and
// |inferred ∩ truth| / |inferred| (precision).
func overlap(inferred map[astopo.ASN]struct{}, truth []astopo.ASN) (recall, precision float64) {
	truthSet := make(map[astopo.ASN]struct{}, len(truth))
	for _, as := range truth {
		truthSet[as] = struct{}{}
	}
	both := 0
	for as := range inferred {
		if _, ok := truthSet[as]; ok {
			both++
		}
	}
	if len(truth) > 0 {
		recall = float64(both) / float64(len(truth))
	}
	if len(inferred) > 0 {
		precision = float64(both) / float64(len(inferred))
	}
	return recall, precision
}

func TestPipelineRecoversTop4Footprints(t *testing.T) {
	res := testPipeline(DefaultOptions()).Run(rapid7At(t, lastSnap))
	for _, id := range hg.Top4() {
		truth := testWorld.TrueOffNetASes(id, lastSnap)
		hr := res.PerHG[id]
		recall, precision := overlap(hr.ConfirmedASes, truth)
		// The paper's operator survey: 89-95 % of hosting ASes
		// uncovered, small overestimates from mapping errors.
		if recall < 0.85 {
			t.Errorf("%v recall = %.3f (inferred %d, truth %d)", id, recall, len(hr.ConfirmedASes), len(truth))
		}
		if precision < 0.90 {
			t.Errorf("%v precision = %.3f", id, precision)
		}
	}
}

func TestPipelineOnNetDiscovery(t *testing.T) {
	res := testPipeline(DefaultOptions()).Run(rapid7At(t, lastSnap))
	for _, id := range hg.Top4() {
		hr := res.PerHG[id]
		want := testWorld.OnNetASes(id)
		if len(hr.OnNetASes) != len(want) {
			t.Errorf("%v on-net ASes = %v, want %v", id, hr.OnNetASes, want)
		}
		if len(hr.DNSNames) == 0 {
			t.Errorf("%v learned no dNSNames", id)
		}
		if hr.OnNetIPs == 0 {
			t.Errorf("%v has no on-net IPs", id)
		}
	}
}

func TestNoOffNetHypergiantsStayEmpty(t *testing.T) {
	res := testPipeline(DefaultOptions()).Run(rapid7At(t, lastSnap))
	for _, id := range []hg.ID{hg.Microsoft, hg.Hulu, hg.Disney, hg.Yahoo, hg.Fastly, hg.Apple} {
		if n := len(res.PerHG[id].ConfirmedASes); n > 1 {
			t.Errorf("%v confirmed off-nets = %d, want ~0", id, n)
		}
	}
}

func TestServicePresentNotConfirmed(t *testing.T) {
	// Apple/Twitter certificates on third-party CDN hardware must show
	// up as candidates but fail header confirmation (Table 3's
	// parenthesised-only entries).
	res := testPipeline(DefaultOptions()).Run(rapid7At(t, lastSnap))
	for _, id := range []hg.ID{hg.Apple, hg.Twitter} {
		hr := res.PerHG[id]
		if len(hr.CandidateASes) == 0 {
			t.Errorf("%v has no certs-only candidates", id)
		}
		if len(hr.ConfirmedASes) > len(hr.CandidateASes)/3 {
			t.Errorf("%v confirmed %d of %d candidates; expected nearly none",
				id, len(hr.ConfirmedASes), len(hr.CandidateASes))
		}
	}
}

func TestCloudflareFilter(t *testing.T) {
	snap := rapid7At(t, lastSnap)
	withFilter := testPipeline(DefaultOptions()).Run(snap)
	noFilter := testPipeline(Options{HeaderMode: HeadersEither, DisableCloudflareFilter: true}).Run(snap)

	fcf := withFilter.PerHG[hg.Cloudflare]
	ncf := noFilter.PerHG[hg.Cloudflare]
	if len(ncf.CandidateASes) <= len(fcf.CandidateASes) {
		t.Errorf("Cloudflare filter removed nothing: %d with vs %d without",
			len(fcf.CandidateASes), len(ncf.CandidateASes))
	}
	// Even with the filter, enterprise customer certificates leak
	// through — Cloudflare is misidentified as having some off-nets
	// (the paper's 110* caveat).
	if len(fcf.CandidateASes) == 0 {
		t.Error("expected residual Cloudflare misidentifications")
	}
	// But Cloudflare has no genuine off-nets.
	if truth := testWorld.TrueOffNetASes(hg.Cloudflare, lastSnap); len(truth) != 0 {
		t.Fatalf("ground truth violated: %d", len(truth))
	}
}

func TestDNSNameFilterAblation(t *testing.T) {
	snap := rapid7At(t, lastSnap)
	strict := testPipeline(Options{HeaderMode: CertsOnly}).Run(snap)
	loose := testPipeline(Options{HeaderMode: CertsOnly, DisableDNSNameFilter: true}).Run(snap)
	// Without the subset rule, shared-certificate partners inflate the
	// candidate sets.
	sum := func(r *Result) int {
		total := 0
		for _, hr := range r.PerHG {
			total += len(hr.CandidateASes)
		}
		return total
	}
	if sum(loose) <= sum(strict) {
		t.Errorf("dNSName filter removed nothing: %d strict vs %d loose", sum(strict), sum(loose))
	}
}

func TestChainValidationAblation(t *testing.T) {
	snap := rapid7At(t, lastSnap)
	strict := testPipeline(Options{HeaderMode: CertsOnly}).Run(snap)
	loose := testPipeline(Options{HeaderMode: CertsOnly, DisableChainValidation: true}).Run(snap)
	// Self-signed impostors claim hypergiant organizations; without
	// §4.1 they pollute candidates... but only those whose dNSNames are
	// also served on-net, which impostor certs are (they copy a real
	// HG domain). So candidate IP counts must grow.
	var strictIPs, looseIPs int
	for _, hr := range strict.PerHG {
		strictIPs += hr.CandidateIPs
	}
	for _, hr := range loose.PerHG {
		looseIPs += hr.CandidateIPs
	}
	if looseIPs <= strictIPs {
		t.Errorf("chain validation removed nothing: %d strict vs %d loose IPs", strictIPs, looseIPs)
	}
	if strict.ValidCertIPs >= strict.TotalCertIPs {
		t.Error("some certificates should be invalid")
	}
	frac := 1 - float64(strict.ValidCertIPs)/float64(strict.TotalCertIPs)
	if frac < 0.15 || frac > 0.5 {
		t.Errorf("invalid fraction = %.3f, paper reports more than a third of hosts", frac)
	}
}

func TestInvalidReasonsTracked(t *testing.T) {
	res := testPipeline(DefaultOptions()).Run(rapid7At(t, lastSnap))
	for _, reason := range []string{"expired", "self-signed-leaf", "untrusted-root"} {
		if res.InvalidByReason[reason] == 0 {
			t.Errorf("no chains rejected for %q", reason)
		}
	}
}

func TestNetflixEnvelopeDuringEra(t *testing.T) {
	p := testPipeline(DefaultOptions())
	profile := scanners.Rapid7Profile()
	sr := p.RunStudy(func(s timeline.Snapshot) *corpus.Snapshot {
		return scanners.Scan(testWorld, profile, s)
	})
	era := timeline.Snapshot(18) // 2018-04, mid expired-cert era
	pre := timeline.Snapshot(12) // 2016-10

	if sr.NetflixInitial[era] >= sr.NetflixWithExpired[era] {
		t.Errorf("expired restoration added nothing: initial %d, w/expired %d",
			sr.NetflixInitial[era], sr.NetflixWithExpired[era])
	}
	if sr.NetflixWithExpired[era] > sr.NetflixNonTLS[era] {
		t.Errorf("non-TLS restoration lost ASes: %d vs %d",
			sr.NetflixWithExpired[era], sr.NetflixNonTLS[era])
	}
	// Outside the era the three lines coincide (nearly).
	if diff := sr.NetflixNonTLS[pre] - sr.NetflixInitial[pre]; diff > sr.NetflixInitial[pre]/10 {
		t.Errorf("pre-era envelope gap = %d of %d", diff, sr.NetflixInitial[pre])
	}
	// The envelope tracks ground truth through the era.
	truth := len(testWorld.TrueOffNetASes(hg.Netflix, era))
	env := sr.EnvelopeSeries(hg.Netflix)[era]
	if float64(env) < 0.8*float64(truth) {
		t.Errorf("era envelope %d far below truth %d", env, truth)
	}
	// The plain inference visibly dips during the era.
	if !(sr.NetflixInitial[era] < int(0.8*float64(truth))) {
		t.Errorf("expected a visible dip: initial %d, truth %d", sr.NetflixInitial[era], truth)
	}
}

func TestHeaderModesOrdering(t *testing.T) {
	snap := rapid7At(t, lastSnap)
	certs := testPipeline(Options{HeaderMode: CertsOnly}).Run(snap)
	either := testPipeline(Options{HeaderMode: HeadersEither}).Run(snap)
	for _, id := range hg.Top4() {
		c := len(certs.PerHG[id].ConfirmedASes)
		e := len(either.PerHG[id].ConfirmedASes)
		// Fig 4's "both" line is recorded by every run, whatever its mode.
		b := len(either.PerHG[id].ConfirmedByBothASes)
		if !(b <= e && e <= c) {
			t.Errorf("%v: Both(%d) ≤ Either(%d) ≤ CertsOnly(%d) violated", id, b, e, c)
		}
		// Fig 4: the differences are minimal for genuine off-nets.
		if id != hg.Netflix && e < c*8/10 {
			t.Errorf("%v: header confirmation lost too much: %d of %d", id, e, c)
		}
	}
}

func TestMiningRecoversTable4(t *testing.T) {
	snap := rapid7At(t, lastSnap)
	mapper := testWorld.IP2AS(lastSnap)
	httpsIdx := headerIndex(snap.HTTPS)

	for _, id := range []hg.ID{hg.Google, hg.Facebook, hg.Akamai, hg.Cloudflare} {
		h := hg.Get(id)
		onNet := make(map[astopo.ASN]struct{})
		for _, as := range testWorld.OnNetASes(id) {
			onNet[as] = struct{}{}
		}
		var responses [][]hg.Header
		for ip, headers := range httpsIdx {
			for _, as := range mapper.Lookup(ip) {
				if _, ok := onNet[as]; ok {
					responses = append(responses, headers)
					break
				}
			}
		}
		if len(responses) == 0 {
			t.Fatalf("%v: no on-net header responses", id)
		}
		mined := MineHeaderFingerprints(responses, 50)
		recovered := false
		for _, f := range h.Fingerprints {
			if mined.RecoversFingerprint(f) {
				recovered = true
				break
			}
		}
		if !recovered {
			t.Errorf("%v: mining did not recover any Table 4 fingerprint; top pairs: %v", id, mined.TopPairs[:min(5, len(mined.TopPairs))])
		}
		// Common standard headers must be filtered out.
		for _, pc := range mined.TopPairs {
			if pc.Name == "content-type" || pc.Name == "cache-control" {
				t.Errorf("%v: common header %q not filtered", id, pc.Name)
			}
		}
	}
}

func TestStudySeriesShapes(t *testing.T) {
	p := testPipeline(DefaultOptions())
	profile := scanners.Rapid7Profile()
	sr := p.RunStudy(func(s timeline.Snapshot) *corpus.Snapshot {
		return scanners.Scan(testWorld, profile, s)
	})
	g := sr.ConfirmedSeries(hg.Google)
	if g[0] == 0 || g[len(g)-1] <= g[0] {
		t.Errorf("Google series should grow: %v", g)
	}
	f := sr.ConfirmedSeries(hg.Facebook)
	if f[0] != 0 {
		t.Errorf("Facebook should start at 0, got %d", f[0])
	}
	a := sr.ConfirmedSeries(hg.Akamai)
	maxA, at := sr.MaxConfirmed(hg.Akamai)
	if at < 14 || at > 24 {
		t.Errorf("Akamai peak at %v (%d), want around 2018-04", at, maxA)
	}
	if a[len(a)-1] >= maxA {
		t.Errorf("Akamai should decline after its peak")
	}
	// Table 3 ordering at the end of the study.
	endG := g[len(g)-1]
	for _, id := range []hg.ID{hg.Netflix, hg.Facebook, hg.Akamai} {
		if s := sr.EnvelopeSeries(id); s[len(s)-1] > endG {
			t.Errorf("%v ends above Google", id)
		}
	}
}
