package analysis

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"offnetscope/internal/astopo"
	"offnetscope/internal/corpus"
	"offnetscope/internal/hg"
	"offnetscope/internal/population"
	"offnetscope/internal/timeline"
)

func init() {
	register("fig7", "Figure 7: user-population coverage per country (Google/Netflix/Akamai)", func(e *Env) Renderer { return Fig7(e) })
	register("fig8", "Figure 8: Google coverage via customer cones", func(e *Env) Renderer { return Fig8(e) })
	register("fig9", "Figure 9: Facebook coverage 2017-10 vs 2021-04", func(e *Env) Renderer { return Fig9(e) })
	register("fig12", "Figure 12: cone coverage for Facebook/Netflix/Akamai", func(e *Env) Renderer { return Fig12(e) })
}

// hostingSetAt returns one hypergiant's confirmed hosting AS set at s
// (with the Netflix expired restoration).
func hostingSetAt(e *Env, id hg.ID, s timeline.Snapshot) map[astopo.ASN]struct{} {
	sr := e.Study(corpus.Rapid7)
	r := sr.Results[s]
	if r == nil {
		return nil
	}
	set := make(map[astopo.ASN]struct{})
	for as := range r.PerHG[id].ConfirmedASes {
		set[as] = struct{}{}
	}
	if id == hg.Netflix {
		for as := range r.PerHG[id].ExpiredASes {
			set[as] = struct{}{}
		}
	}
	return set
}

// CoverageMap is one per-country coverage map plus its world aggregate.
type CoverageMap struct {
	HG        hg.ID
	Snapshot  timeline.Snapshot
	ByCountry map[string]float64 // percent, 0-100
	World     float64
}

func coverageMap(e *Env, id hg.ID, s timeline.Snapshot, cones bool) CoverageMap {
	hosting := hostingSetAt(e, id, s)
	if cones {
		hosting = population.ExpandByCones(e.World.Graph(), hosting, s)
	}
	return CoverageMap{
		HG:        id,
		Snapshot:  s,
		ByCountry: e.Pop.CoverageByCountry(hosting, s),
		World:     e.Pop.WorldCoverage(hosting, s),
	}
}

func renderMap(b *strings.Builder, m CoverageMap) {
	fmt.Fprintf(b, "--- %s @ %s (world %.1f%%) ---\n", m.HG, m.Snapshot.Label(), m.World)
	var codes []string
	for code := range m.ByCountry {
		codes = append(codes, code)
	}
	sort.Strings(codes)
	for i, code := range codes {
		fmt.Fprintf(b, "%s:%5.1f  ", code, m.ByCountry[code])
		if (i+1)%8 == 0 {
			b.WriteString("\n")
		}
	}
	b.WriteString("\n")
}

// Fig7Result reproduces Figure 7: April 2021 coverage maps for Google,
// Netflix, and Akamai.
type Fig7Result struct {
	Maps []CoverageMap
}

// Fig7 computes the three coverage maps.
func Fig7(e *Env) *Fig7Result {
	out := &Fig7Result{}
	for _, id := range []hg.ID{hg.Google, hg.Netflix, hg.Akamai} {
		out.Maps = append(out.Maps, coverageMap(e, id, LastSnapshot(), false))
	}
	return out
}

// Render implements Renderer.
func (f *Fig7Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 7 — % of a country's Internet users in ASes hosting off-nets (2021-04)\n")
	for _, m := range f.Maps {
		renderMap(&b, m)
	}
	return b.String()
}

// Fig8Result reproduces Figure 8: Google's coverage when off-nets also
// serve the hosting ASes' customer cones.
type Fig8Result struct {
	Direct CoverageMap
	Cones  CoverageMap
	// TopGainers lists the countries with the largest coverage increase.
	TopGainers []CountryGain
}

// CountryGain is one country's direct → cone coverage increase.
type CountryGain struct {
	Code         string
	Direct, Cone float64
}

// Fig8 computes the cone-expanded Google coverage.
func Fig8(e *Env) *Fig8Result {
	out := &Fig8Result{
		Direct: coverageMap(e, hg.Google, LastSnapshot(), false),
		Cones:  coverageMap(e, hg.Google, LastSnapshot(), true),
	}
	var gains []CountryGain
	for code, cone := range out.Cones.ByCountry {
		direct := out.Direct.ByCountry[code]
		if cone > direct {
			gains = append(gains, CountryGain{Code: code, Direct: direct, Cone: cone})
		}
	}
	out.TopGainers = topGainers(gains)
	return out
}

// topGainers keeps the ten largest increases as Render prints them,
// ties broken by country code: two gains that print alike tie, so the
// cut and its order never depend on float noise or map iteration.
func topGainers(gains []CountryGain) []CountryGain {
	sort.Slice(gains, func(i, j int) bool {
		gi := tenths(gains[i].Cone) - tenths(gains[i].Direct)
		gj := tenths(gains[j].Cone) - tenths(gains[j].Direct)
		if gi != gj {
			return gi > gj
		}
		return gains[i].Code < gains[j].Code
	})
	if len(gains) > 10 {
		gains = gains[:10]
	}
	return gains
}

// tenths is a share as Render prints it, to one decimal, in tenths of a
// percent: 99.99999999999999 and 100 are both 1000. The parse fails
// only for NaN and ±Inf, which no share is.
func tenths(v float64) int64 {
	n, _ := strconv.ParseInt(strings.Replace(strconv.FormatFloat(v, 'f', 1, 64), ".", "", 1), 10, 64)
	return n
}

// Render implements Renderer.
func (f *Fig8Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 8 — Google coverage with customer cones: world %.1f%% → %.1f%%\n",
		f.Direct.World, f.Cones.World)
	renderMap(&b, f.Cones)
	b.WriteString("largest gains: ")
	for _, g := range f.TopGainers {
		fmt.Fprintf(&b, "%s %.1f→%.1f  ", g.Code, g.Direct, g.Cone)
	}
	b.WriteString("\n")
	return b.String()
}

// Fig9Result reproduces Figure 9: Facebook coverage at the start of the
// population dataset (2017-10) and at the end of the study.
type Fig9Result struct {
	Early, Late CoverageMap
}

// Fig9 computes the two Facebook maps.
func Fig9(e *Env) *Fig9Result {
	return &Fig9Result{
		Early: coverageMap(e, hg.Facebook, population.AvailableFrom, false),
		Late:  coverageMap(e, hg.Facebook, LastSnapshot(), false),
	}
}

// Render implements Renderer.
func (f *Fig9Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 9 — Facebook coverage: world %.1f%% (2017-10) → %.1f%% (2021-04)\n",
		f.Early.World, f.Late.World)
	renderMap(&b, f.Early)
	renderMap(&b, f.Late)
	return b.String()
}

// Fig12Result reproduces Figure 12: cone-expanded coverage for Facebook,
// Netflix, and Akamai.
type Fig12Result struct {
	Pairs []struct {
		Direct, Cones CoverageMap
	}
}

// Fig12 computes the three cone-coverage maps.
func Fig12(e *Env) *Fig12Result {
	out := &Fig12Result{}
	for _, id := range []hg.ID{hg.Facebook, hg.Netflix, hg.Akamai} {
		out.Pairs = append(out.Pairs, struct{ Direct, Cones CoverageMap }{
			Direct: coverageMap(e, id, LastSnapshot(), false),
			Cones:  coverageMap(e, id, LastSnapshot(), true),
		})
	}
	return out
}

// Render implements Renderer.
func (f *Fig12Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 12 — coverage within customer cones (2021-04)\n")
	for _, p := range f.Pairs {
		fmt.Fprintf(&b, "%s: world %.1f%% → %.1f%%\n", p.Direct.HG, p.Direct.World, p.Cones.World)
		renderMap(&b, p.Cones)
	}
	return b.String()
}
