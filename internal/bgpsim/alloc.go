// Package bgpsim provides the BGP substrate of the study: IPv4 address
// allocation to ASes, monthly RIB snapshots from two route collectors
// (RouteViews- and RIPE-RIS-like) including MOAS, hijack and route-leak
// noise, and the paper's appendix-A.1 IP-to-AS pipeline — bogon
// filtering, a ≥25 %-of-month stability filter, and a merge of the two
// collectors into a longest-prefix-match table.
package bgpsim

import (
	"fmt"
	"sort"

	"offnetscope/internal/astopo"
	"offnetscope/internal/netmodel"
	"offnetscope/internal/rng"
	"offnetscope/internal/timeline"
)

// Allocator owns the mapping from ASes to the IPv4 prefixes they
// originate. Allocation is deterministic in (graph, seed): address space
// is carved sequentially from 1.0.0.0 upward, skipping IANA
// special-purpose ranges, with block sizes scaled to the AS's size
// category so large eyeballs own far more addresses than stubs.
type Allocator struct {
	prefixes map[astopo.ASN][]netmodel.Prefix
	owner    netmodel.Trie[astopo.ASN]
}

// Plan describes an AS's allocation: how many blocks of which size.
type Plan struct {
	Blocks int
	Length int
}

// allocation plan per category: number of blocks and block prefix length.
var allocPlan = map[astopo.Category]Plan{
	astopo.Stub:   {1, 23},
	astopo.Small:  {1, 22},
	astopo.Medium: {2, 21},
	astopo.Large:  {3, 18},
	astopo.XLarge: {4, 15},
}

// NewAllocator assigns address space to every AS in the graph, sized by
// the AS's category at the final snapshot.
func NewAllocator(g *astopo.Graph, seed uint64) (*Allocator, error) {
	return NewAllocatorFunc(g, seed, nil)
}

// NewAllocatorFunc is NewAllocator with per-AS plan overrides: when
// planFor returns a non-zero Plan for an AS it replaces the
// category-derived default. Hypergiant on-net ASes use this to receive
// datacenter-sized blocks despite having no customer cone.
func NewAllocatorFunc(g *astopo.Graph, seed uint64, planFor func(astopo.ASN) Plan) (*Allocator, error) {
	rnd := rng.New(seed).Fork("bgpsim/alloc")
	last := timeline.Snapshot(timeline.Count() - 1)
	a := &Allocator{prefixes: make(map[astopo.ASN][]netmodel.Prefix, g.NumASes())}

	cursor := uint64(netmodel.MustParseIP("1.0.0.0"))
	carve := func(length int) (netmodel.Prefix, error) {
		size := uint64(1) << (32 - length)
		for {
			cursor = (cursor + size - 1) / size * size // align
			if cursor+size > 1<<32 {
				return netmodel.Prefix{}, fmt.Errorf("bgpsim: IPv4 space exhausted")
			}
			p := netmodel.MakePrefix(netmodel.IP(cursor), length)
			cursor += size
			if !netmodel.IsBogonPrefix(p) {
				return p, nil
			}
		}
	}

	for i := 1; i <= g.NumASes(); i++ {
		as := astopo.ASN(i)
		var plan Plan
		if planFor != nil {
			plan = planFor(as)
		}
		if plan.Blocks == 0 {
			plan = allocPlan[g.CategoryOf(as, last)]
		}
		n := plan.Blocks
		if n > 1 && rnd.Bool(0.3) {
			n-- // some ASes announce fewer, larger-than-needed blocks
		}
		for b := 0; b < n; b++ {
			p, err := carve(plan.Length)
			if err != nil {
				return nil, err
			}
			a.prefixes[as] = append(a.prefixes[as], p)
			a.owner.Insert(p, as)
		}
	}
	return a, nil
}

// PrefixesOf returns the prefixes allocated to as.
func (a *Allocator) PrefixesOf(as astopo.ASN) []netmodel.Prefix {
	return a.prefixes[as]
}

// TrueOwner returns the AS that genuinely owns ip (ground truth,
// independent of BGP noise).
func (a *Allocator) TrueOwner(ip netmodel.IP) (astopo.ASN, bool) {
	return a.owner.Lookup(ip)
}

// NumPrefixes returns the total number of allocated prefixes.
func (a *Allocator) NumPrefixes() int { return a.owner.Len() }

// AllASes returns every AS holding at least one prefix, sorted.
func (a *Allocator) AllASes() []astopo.ASN {
	out := make([]astopo.ASN, 0, len(a.prefixes))
	for as := range a.prefixes {
		out = append(out, as)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
