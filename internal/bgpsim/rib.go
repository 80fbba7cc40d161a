package bgpsim

import (
	"sort"

	"offnetscope/internal/astopo"
	"offnetscope/internal/netmodel"
	"offnetscope/internal/rng"
	"offnetscope/internal/timeline"
)

// Collector identifies a route-collector project.
type Collector string

// The two collector projects the paper merges (§A.1).
const (
	RouteViews Collector = "routeviews"
	RIPERIS    Collector = "ripe-ris"
)

// Announcement is one (prefix, origin) pair aggregated over a monthly
// collector snapshot. Presence is the fraction of the month the mapping
// was visible; the paper keeps mappings seen ≥25 % of the time to shed
// hijacks and leaks (fewer than 2 % of hijacks last longer than a week).
type Announcement struct {
	Prefix   netmodel.Prefix
	Origin   astopo.ASN
	Presence float64
}

// RIB is one collector's monthly aggregate.
type RIB struct {
	Collector     Collector
	Snapshot      timeline.Snapshot
	Announcements []Announcement
}

// NoiseConfig tunes the disturbances injected into RIBs.
type NoiseConfig struct {
	// HijackRate is the per-prefix probability of a short-lived
	// (sub-week) hijack by a random AS appearing in the month.
	HijackRate float64
	// LeakRate is the per-prefix probability of a route leak that
	// briefly re-originates the prefix from a provider.
	LeakRate float64
	// MOASRate is the per-AS probability that one of its prefixes is
	// legitimately co-originated by a sibling AS all month.
	MOASRate float64
	// MissRate is the per-prefix probability a collector misses the
	// announcement entirely that month (visibility gaps).
	MissRate float64
	// BogonRate is the probability of a stray bogon announcement
	// polluting the RIB.
	BogonRate float64
}

// DefaultNoise mirrors observed magnitudes: hijacks and leaks are rare
// and short; collector visibility gaps are a little more common.
func DefaultNoise() NoiseConfig {
	return NoiseConfig{
		HijackRate: 0.004,
		LeakRate:   0.002,
		MOASRate:   0.01,
		MissRate:   0.01,
		BogonRate:  0.002,
	}
}

// BuildRIB produces a collector's monthly RIB for snapshot s: every
// active AS announces its prefixes near-continuously, plus injected
// noise. Deterministic in (graph, alloc, collector, snapshot, seed).
func BuildRIB(g *astopo.Graph, alloc *Allocator, col Collector, s timeline.Snapshot, noise NoiseConfig, seed uint64) *RIB {
	rnd := rng.New(seed).Fork("bgpsim/rib/" + string(col) + "/" + s.Label())
	rib := &RIB{Collector: col, Snapshot: s}
	numASes := g.NumASes()

	for i := 1; i <= numASes; i++ {
		as := astopo.ASN(i)
		if !g.Active(as, s) {
			continue
		}
		prefixes := alloc.PrefixesOf(as)
		moasSibling := astopo.ASN(0)
		if rnd.Bool(noise.MOASRate) {
			moasSibling = astopo.ASN(rnd.Intn(numASes) + 1)
		}
		for _, p := range prefixes {
			if rnd.Bool(noise.MissRate) {
				continue
			}
			rib.Announcements = append(rib.Announcements, Announcement{
				Prefix:   p,
				Origin:   as,
				Presence: 0.92 + 0.08*rnd.Float64(),
			})
			if moasSibling != 0 && g.Active(moasSibling, s) {
				rib.Announcements = append(rib.Announcements, Announcement{
					Prefix:   p,
					Origin:   moasSibling,
					Presence: 0.8 + 0.2*rnd.Float64(),
				})
			}
			if rnd.Bool(noise.HijackRate) {
				hijacker := astopo.ASN(rnd.Intn(numASes) + 1)
				rib.Announcements = append(rib.Announcements, Announcement{
					Prefix:   p,
					Origin:   hijacker,
					Presence: 0.01 + 0.2*rnd.Float64(), // < 25 % of the month
				})
			}
			if rnd.Bool(noise.LeakRate) {
				providers := g.Providers(as)
				if len(providers) > 0 {
					rib.Announcements = append(rib.Announcements, Announcement{
						Prefix:   p,
						Origin:   rng.Pick(rnd, providers),
						Presence: 0.01 + 0.15*rnd.Float64(),
					})
				}
			}
		}
	}

	if rnd.Bool(noise.BogonRate * 100) { // scale: a handful per month
		bogons := netmodel.Bogons()
		for k := 0; k < 3; k++ {
			rib.Announcements = append(rib.Announcements, Announcement{
				Prefix:   bogons[rnd.Intn(len(bogons))],
				Origin:   astopo.ASN(rnd.Intn(numASes) + 1),
				Presence: 0.5,
			})
		}
	}
	return rib
}

// IP2AS is the monthly IP-to-AS longest-prefix-match table produced by
// the appendix-A.1 pipeline. MOAS prefixes map to multiple origins.
type IP2AS struct {
	trie netmodel.Trie[[]astopo.ASN]
}

// Len returns the number of mapped prefixes.
func (m *IP2AS) Len() int { return m.trie.Len() }

// Lookup maps an IP to its origin AS(es) by longest-prefix match. The
// slice has length >1 only for MOAS prefixes. Bogon addresses never
// resolve.
func (m *IP2AS) Lookup(ip netmodel.IP) []astopo.ASN {
	if netmodel.IsBogon(ip) {
		return nil
	}
	asns, _ := m.trie.Lookup(ip)
	return asns
}

// LookupOne maps an IP to a single origin AS, choosing the lowest ASN
// for MOAS prefixes so results are deterministic.
func (m *IP2AS) LookupOne(ip netmodel.IP) (astopo.ASN, bool) {
	asns := m.Lookup(ip)
	if len(asns) == 0 {
		return 0, false
	}
	return asns[0], true
}

// Walk visits every mapped prefix in address order.
func (m *IP2AS) Walk(fn func(netmodel.Prefix, []astopo.ASN) bool) {
	m.trie.Walk(fn)
}

// MinPresence is the appendix-A.1 stability threshold: a mapping must be
// visible at least 25 % of the month (~one week).
const MinPresence = 0.25

// BuildIP2AS merges monthly RIBs from multiple collectors into one
// IP-to-AS table: bogon prefixes are dropped, mappings below MinPresence
// are dropped (per collector), and surviving conflicting origins for the
// same prefix are all kept as MOAS. The table does not record the
// snapshot argument; it stays for the bench module's callers.
func BuildIP2AS(_ timeline.Snapshot, ribs ...*RIB) *IP2AS {
	origins := make(map[netmodel.Prefix]map[astopo.ASN]struct{})
	for _, rib := range ribs {
		for _, ann := range rib.Announcements {
			if ann.Presence < MinPresence {
				continue
			}
			if netmodel.IsBogonPrefix(ann.Prefix) {
				continue
			}
			set := origins[ann.Prefix]
			if set == nil {
				set = make(map[astopo.ASN]struct{})
				origins[ann.Prefix] = set
			}
			set[ann.Origin] = struct{}{}
		}
	}
	m := &IP2AS{}
	for p, set := range origins {
		asns := make([]astopo.ASN, 0, len(set))
		for as := range set {
			asns = append(asns, as)
		}
		sort.Slice(asns, func(i, j int) bool { return asns[i] < asns[j] })
		m.trie.Insert(p, asns)
	}
	return m
}

// BuildMonthly runs the whole pipeline for one snapshot: both collectors'
// RIBs are generated and merged.
func BuildMonthly(g *astopo.Graph, alloc *Allocator, s timeline.Snapshot, noise NoiseConfig, seed uint64) *IP2AS {
	rv := BuildRIB(g, alloc, RouteViews, s, noise, seed)
	ris := BuildRIB(g, alloc, RIPERIS, s, noise, seed)
	return BuildIP2AS(s, rv, ris)
}
