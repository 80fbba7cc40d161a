// Package population is the APNIC-population-dataset stand-in: per-AS
// Internet-user market shares at country granularity, with the presence
// filtering the paper applies (§6.5), and the coverage computations
// behind Figures 7-9 and 12 — including the customer-cone expansion of
// Figure 8.
package population

import (
	"math"
	"sort"

	"offnetscope/internal/astopo"
	"offnetscope/internal/rng"
	"offnetscope/internal/timeline"
)

// AvailableFrom is the first snapshot with population data: the paper
// stores monthly APNIC snapshots since October 2017.
const AvailableFrom = timeline.Snapshot(16)

// Dataset holds per-AS user market shares within each AS's country.
type Dataset struct {
	graph *astopo.Graph
	// share is the AS's fraction of its country's Internet users.
	share map[astopo.ASN]float64
	// reliability drives the per-month presence filter: ASes appear in
	// the daily measurement only intermittently; the paper keeps an AS
	// only if it was present ≥25 % of the month.
	reliability map[astopo.ASN]float64
}

// Build derives a population dataset from the AS graph: each country's
// users are split across its ASes with weights that grow with customer
// cone size (big eyeball networks hold most users), plus heavy-tailed
// noise so some stubs are large consumer ISPs.
func Build(g *astopo.Graph, seed uint64) *Dataset {
	rnd := rng.New(seed).Fork("population")
	d := &Dataset{
		graph:       g,
		share:       make(map[astopo.ASN]float64),
		reliability: make(map[astopo.ASN]float64),
	}
	last := timeline.Snapshot(timeline.Count() - 1)

	byCountry := make(map[string][]astopo.ASN)
	for i := 1; i <= g.NumASes(); i++ {
		as := astopo.ASN(i)
		byCountry[g.Country(as)] = append(byCountry[g.Country(as)], as)
	}
	var codes []string
	for code := range byCountry {
		codes = append(codes, code)
	}
	sort.Strings(codes)

	for _, code := range codes {
		asns := byCountry[code]
		weights := make([]float64, len(asns))
		var total float64
		for i, as := range asns {
			cone := float64(g.ConeSize(as, last, 1001))
			// Superlinear in cone size: national markets concentrate in
			// a few big eyeball networks, exactly why hypergiants reach
			// most users from a few thousand hosting ASes (§6.5).
			w := math.Pow(1+cone, 1.4) * (0.2 + 3*rnd.Float64()*rnd.Float64())
			weights[i] = w
			total += w
		}
		for i, as := range asns {
			d.share[as] = weights[i] / total
			// Big ASes are always measurable; small ones flicker.
			d.reliability[as] = 0.1 + 0.9*rnd.Float64()
			if weights[i]/total > 0.02 {
				d.reliability[as] = 0.9 + 0.1*rnd.Float64()
			}
		}
	}
	return d
}

// Present reports whether the AS passes the §6.5 presence filter in the
// month of s: seen at least 25 % of the month in the daily data.
func (d *Dataset) Present(as astopo.ASN, s timeline.Snapshot) bool {
	if s < AvailableFrom || !d.graph.Active(as, s) {
		return false
	}
	r, ok := d.reliability[as]
	if !ok {
		return false
	}
	// Deterministic monthly jitter around the AS's base reliability.
	h := uint64(as)*0x9e3779b97f4a7c15 + uint64(s)*0xbf58476d1ce4e5b9
	h ^= h >> 29
	jitter := float64(h%1000)/1000*0.4 - 0.2
	return r+jitter >= 0.25
}

// Share returns the AS's fraction of its country's Internet users at s,
// or 0 when the AS is filtered out. The paper errs on the side of
// accuracy and treats the result as a lower bound.
func (d *Dataset) Share(as astopo.ASN, s timeline.Snapshot) float64 {
	if !d.Present(as, s) {
		return 0
	}
	return d.share[as]
}

// CoverageByCountry returns, per country code, the percentage (0-100) of
// the country's Internet users inside ASes from the hosting set — one
// Fig 7 map.
func (d *Dataset) CoverageByCountry(hosting map[astopo.ASN]struct{}, s timeline.Snapshot) map[string]float64 {
	// Float addition is not associative: sum in ASN order, not map order.
	out := make(map[string]float64)
	for _, as := range sortedASNs(hosting) {
		if share := d.Share(as, s); share > 0 {
			out[d.graph.Country(as)] += share * 100
		}
	}
	for code, v := range out {
		if v > 100 {
			out[code] = 100
		}
	}
	return out
}

// WorldCoverage aggregates country coverages into a single user-weighted
// world percentage (0-100).
func (d *Dataset) WorldCoverage(hosting map[astopo.ASN]struct{}, s timeline.Snapshot) float64 {
	byCountry := d.CoverageByCountry(hosting, s)
	var covered, total float64
	for _, c := range astopo.Countries() {
		total += c.Users
		covered += c.Users * byCountry[c.Code] / 100
	}
	if total == 0 {
		return 0
	}
	return covered / total * 100
}

// ExpandByCones grows a hosting set to include every AS in the customer
// cones of its members — the Fig 8 "serve the cone too" scenario.
func ExpandByCones(g *astopo.Graph, hosting map[astopo.ASN]struct{}, s timeline.Snapshot) map[astopo.ASN]struct{} {
	return g.Descendants(sortedASNs(hosting), s)
}

// sortedASNs returns the members of set in ascending order.
func sortedASNs(set map[astopo.ASN]struct{}) []astopo.ASN {
	out := make([]astopo.ASN, 0, len(set))
	for as := range set {
		out = append(out, as)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ConeCoverageByCountry is CoverageByCountry over the cone-expanded set.
func (d *Dataset) ConeCoverageByCountry(hosting map[astopo.ASN]struct{}, s timeline.Snapshot) map[string]float64 {
	return d.CoverageByCountry(ExpandByCones(d.graph, hosting, s), s)
}
