package population

import (
	"math"
	"testing"

	"offnetscope/internal/astopo"
	"offnetscope/internal/timeline"
)

func buildTestData(t testing.TB) (*astopo.Graph, *Dataset) {
	g := astopo.Generate(astopo.GenConfig{Seed: 3, FinalASes: 1500})
	return g, Build(g, 3)
}

func lastS() timeline.Snapshot { return timeline.Snapshot(timeline.Count() - 1) }

func TestSharesSumToAtMostOnePerCountry(t *testing.T) {
	g, d := buildTestData(t)
	sums := make(map[string]float64)
	for i := 1; i <= g.NumASes(); i++ {
		as := astopo.ASN(i)
		sums[g.Country(as)] += d.share[as]
	}
	for code, sum := range sums {
		if sum < 0.999 || sum > 1.001 {
			t.Errorf("country %s shares sum to %v", code, sum)
		}
	}
}

func TestAvailabilityWindow(t *testing.T) {
	g, d := buildTestData(t)
	early := timeline.Snapshot(10)
	for i := 1; i <= g.NumASes(); i++ {
		if d.Share(astopo.ASN(i), early) != 0 {
			t.Fatal("population data must not exist before 2017-10")
		}
	}
	if AvailableFrom.Label() != "2017-10" {
		t.Fatalf("AvailableFrom = %v", AvailableFrom.Label())
	}
}

func TestPresenceFilterDropsSomeASes(t *testing.T) {
	g, d := buildTestData(t)
	s := lastS()
	present, absent := 0, 0
	for i := 1; i <= g.NumASes(); i++ {
		as := astopo.ASN(i)
		if !g.Active(as, s) {
			continue
		}
		if d.Present(as, s) {
			present++
		} else {
			absent++
		}
	}
	if absent == 0 {
		t.Error("presence filter dropped nothing; the paper drops ~2/3 of ASes")
	}
	if present == 0 {
		t.Fatal("presence filter dropped everything")
	}
	frac := float64(present) / float64(present+absent)
	if frac < 0.2 || frac > 0.95 {
		t.Errorf("present fraction = %v", frac)
	}
}

func TestLargeASesSurviveFilter(t *testing.T) {
	g, d := buildTestData(t)
	s := lastS()
	// ASes holding >2 % of their country must essentially always pass.
	missedBig := 0
	for i := 1; i <= g.NumASes(); i++ {
		as := astopo.ASN(i)
		if g.Active(as, s) && d.share[as] > 0.05 && !d.Present(as, s) {
			missedBig++
		}
	}
	if missedBig > 2 {
		t.Errorf("%d big eyeballs failed the presence filter", missedBig)
	}
}

func TestCoverageByCountry(t *testing.T) {
	g, d := buildTestData(t)
	s := lastS()
	// Hosting every active AS covers most of every measured country.
	all := make(map[astopo.ASN]struct{})
	for _, as := range g.ActiveASes(s) {
		all[as] = struct{}{}
	}
	cov := d.CoverageByCountry(all, s)
	if len(cov) == 0 {
		t.Fatal("no coverage computed")
	}
	for code, v := range cov {
		if v < 0 || v > 100 {
			t.Errorf("%s coverage = %v", code, v)
		}
	}
	// Empty hosting covers nothing.
	if got := d.WorldCoverage(map[astopo.ASN]struct{}{}, s); got != 0 {
		t.Errorf("empty hosting coverage = %v", got)
	}
	wc := d.WorldCoverage(all, s)
	if wc < 30 || wc > 100 {
		t.Errorf("world coverage with all ASes = %v", wc)
	}
}

// Repeated calls over one hosting set agree to the last bit: float
// addition is not associative, and Fig 8 ranks countries by these
// values, breaking ties by country code.
func TestCoverageByCountryIsDeterministic(t *testing.T) {
	g, d := buildTestData(t)
	s := lastS()
	all := make(map[astopo.ASN]struct{})
	for _, as := range g.ActiveASes(s) {
		all[as] = struct{}{}
	}
	want := d.CoverageByCountry(all, s)
	for i := 0; i < 50; i++ {
		got := d.CoverageByCountry(all, s)
		if len(got) != len(want) {
			t.Fatalf("call %d: %d countries, first call gave %d", i, len(got), len(want))
		}
		for code, v := range got {
			if math.Float64bits(v) != math.Float64bits(want[code]) {
				t.Fatalf("call %d: %s = %v, first call gave %v", i, code, v, want[code])
			}
		}
	}
}

func TestCoverageMonotoneInHostingSet(t *testing.T) {
	g, d := buildTestData(t)
	s := lastS()
	active := g.ActiveASes(s)
	small := map[astopo.ASN]struct{}{active[0]: {}, active[1]: {}}
	big := map[astopo.ASN]struct{}{active[0]: {}, active[1]: {}, active[2]: {}, active[3]: {}, active[4]: {}}
	if d.WorldCoverage(small, s) > d.WorldCoverage(big, s) {
		t.Error("coverage must be monotone in the hosting set")
	}
}

func TestConeExpansionIncreasesCoverage(t *testing.T) {
	g, d := buildTestData(t)
	s := lastS()
	// Seed with the biggest-cone ASes: their cones add customers.
	var seeds []astopo.ASN
	for _, as := range g.ActiveASes(s) {
		if g.CategoryOf(as, s) >= astopo.Medium {
			seeds = append(seeds, as)
		}
		if len(seeds) >= 10 {
			break
		}
	}
	if len(seeds) == 0 {
		t.Skip("no medium+ ASes in small world")
	}
	hosting := make(map[astopo.ASN]struct{})
	for _, as := range seeds {
		hosting[as] = struct{}{}
	}
	expanded := ExpandByCones(g, hosting, s)
	if len(expanded) <= len(hosting) {
		t.Fatalf("cone expansion added nothing: %d → %d", len(hosting), len(expanded))
	}
	base := d.WorldCoverage(hosting, s)
	cone := d.WorldCoverage(expanded, s)
	if cone < base {
		t.Errorf("cone coverage %v below base %v", cone, base)
	}
	byCountry := d.ConeCoverageByCountry(hosting, s)
	for code, v := range byCountry {
		if v < 0 || v > 100 {
			t.Errorf("%s cone coverage = %v", code, v)
		}
	}
}

func TestBuildDeterministic(t *testing.T) {
	g := astopo.Generate(astopo.GenConfig{Seed: 9, FinalASes: 600})
	d1 := Build(g, 7)
	d2 := Build(g, 7)
	for i := 1; i <= g.NumASes(); i++ {
		as := astopo.ASN(i)
		if d1.share[as] != d2.share[as] {
			t.Fatal("same seed produced different shares")
		}
	}
}
