package astopo

import (
	"offnetscope/internal/rng"
	"offnetscope/internal/timeline"
)

// GenConfig controls synthetic topology generation.
type GenConfig struct {
	// Seed drives all randomness; identical configs generate identical
	// graphs.
	Seed uint64
	// FinalASes is the number of ASes alive at the last snapshot. The
	// real Internet grew from ~45k (2013) to ~71k (2021) ASes; the
	// generator keeps that ratio, so InitialASes ≈ 0.63 × FinalASes.
	FinalASes int
	// InitialFraction is the fraction of FinalASes already alive at the
	// first snapshot. Zero means the default 0.63 (≈45k/71k).
	InitialFraction float64
}

// asWeight skews AS-count allocation per country relative to its user
// population, reflecting how fragmented each national ISP market is
// (Brazil and Russia famously have thousands of small ASes; China very
// few relative to its size).
var asWeight = map[string]float64{
	"BR": 3.5, "RU": 3.0, "US": 2.2, "ID": 1.6, "AR": 2.0, "CO": 1.6, "PL": 2.0,
	"UA": 2.2, "GB": 1.4, "DE": 1.5, "NL": 1.8, "RO": 2.0, "CN": 0.25, "IN": 0.8,
	"AU": 1.6, "NZ": 1.8, "CA": 1.3, "MX": 1.0, "NG": 0.9, "ZA": 1.3, "KE": 1.1,
	"BD": 1.4, "VN": 0.7, "PH": 0.9, "TH": 0.7, "IR": 0.8, "TR": 0.9,
}

// lateGrowthBoost multiplies the birth weight of countries in regions
// whose AS counts grew fastest late in the study window, producing the
// South-America/Asia-heavy growth the paper observes.
var lateGrowthBoost = map[Continent]float64{
	SouthAmerica: 2.8,
	Asia:         1.8,
	Africa:       1.7,
	Europe:       1.0,
	NorthAmerica: 0.55,
	Oceania:      0.8,
}

// Generate builds a synthetic AS graph: a tiered customer-provider DAG
// whose per-snapshot category shares land near the real Internet's
// (~85 % Stub, ~12 % Small, ~2.6 % Medium, <0.5 % Large, <0.1 % XLarge),
// growing from ~63 % of FinalASes at the first snapshot to FinalASes at
// the last, with late growth biased toward South America, Asia and
// Africa.
func Generate(cfg GenConfig) *Graph {
	if cfg.FinalASes <= 0 {
		cfg.FinalASes = 2000
	}
	if cfg.InitialFraction <= 0 || cfg.InitialFraction > 1 {
		cfg.InitialFraction = 0.63
	}
	rnd := rng.New(cfg.Seed).Fork("astopo")
	g := NewGraph()

	n := cfg.FinalASes
	xlargeN := maxInt(3, n*8/10000)  // ~0.08 %
	largeN := maxInt(6, n*45/10000)  // ~0.45 %
	mediumN := maxInt(20, n*26/1000) // ~2.6 %
	smallN := maxInt(80, n*12/100)   // ~12 %
	stubN := n - xlargeN - largeN - mediumN - smallN

	last := timeline.Snapshot(timeline.Count() - 1)

	// birth draws an AS's first snapshot: InitialFraction of ASes exist
	// from the start, the rest appear uniformly across the window.
	birth := func() timeline.Snapshot {
		if rnd.Bool(cfg.InitialFraction) {
			return 0
		}
		return timeline.Snapshot(1 + rnd.Intn(int(last)))
	}

	country := func(born timeline.Snapshot) string {
		weights := make([]float64, len(countries))
		late := float64(born) / float64(last)
		for i, c := range countries {
			w := c.Users
			if f, ok := asWeight[c.Code]; ok {
				w *= f
			}
			boost := lateGrowthBoost[c.Continent]
			w *= 1 + late*(boost-1)
			weights[i] = w
		}
		return countries[rnd.WeightedPick(weights)].Code
	}

	add := func(k int, bornEarly bool) []ASN {
		out := make([]ASN, k)
		for i := range out {
			var b timeline.Snapshot
			if bornEarly {
				b = 0 // backbone tiers predate the study window
			} else {
				b = birth()
			}
			out[i] = g.AddAS(country(b), b)
		}
		return out
	}

	xlarge := add(xlargeN, true)
	large := add(largeN, true)
	medium := add(mediumN, false)
	small := add(smallN, false)
	stub := add(stubN, false)

	// Stubs: each gets 1-2 providers drawn later from the small/medium
	// pool; assignment happens while building the parents' cones so the
	// cone budgets are exact. Stubs not claimed below get a random small
	// provider at the end.
	claimed := make([]bool, len(stub))
	nextStub := 0
	takeStubs := func(k int) []ASN {
		out := make([]ASN, 0, k)
		for len(out) < k && nextStub < len(stub) {
			out = append(out, stub[nextStub])
			claimed[nextStub] = true
			nextStub++
		}
		return out
	}

	// Small ASes: 1-9 dedicated stub customers (cone 2-10); ~35 % stay
	// cone 1-2 which lands them in Stub/Small boundary territory just
	// like real regional ISPs.
	for _, s := range small {
		k := 1 + rnd.Intn(9)
		for _, c := range takeStubs(k) {
			g.AddCustomer(s, c)
		}
	}

	// Medium ASes: 2-8 small customers plus direct stubs, cone ~12-90.
	for _, m := range medium {
		budget := 12 + rnd.Intn(79)
		used := 1
		for used < budget {
			if rnd.Bool(0.6) && len(small) > 0 {
				ch := rng.Pick(rnd, small)
				g.AddCustomer(m, ch)
				used += 1 + len(g.Customers(ch))
			} else {
				st := takeStubs(1)
				if len(st) == 0 {
					break
				}
				g.AddCustomer(m, st[0])
				used++
			}
		}
	}

	// Large ASes: medium + small customers, cone ~120-900.
	for _, l := range large {
		budget := 120 + rnd.Intn(781)
		used := 1
		for used < budget {
			if rnd.Bool(0.7) {
				ch := rng.Pick(rnd, medium)
				g.AddCustomer(l, ch)
				used += 40 // expected medium cone contribution
			} else {
				ch := rng.Pick(rnd, small)
				g.AddCustomer(l, ch)
				used += 5
			}
		}
	}

	// XLarge (tier-1-like): many large/medium customers; cones blow
	// straight past 1000.
	for _, x := range xlarge {
		for _, l := range large {
			if rnd.Bool(0.5) {
				g.AddCustomer(x, l)
			}
		}
		for k := 0; k < len(medium)/3; k++ {
			g.AddCustomer(x, rng.Pick(rnd, medium))
		}
	}

	// Multihome every unclaimed stub and a third of claimed ones.
	for i, st := range stub {
		if !claimed[i] {
			g.AddCustomer(rng.Pick(rnd, small), st)
		} else if rnd.Bool(0.33) {
			g.AddCustomer(rng.Pick(rnd, small), st)
		}
	}

	return g
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
