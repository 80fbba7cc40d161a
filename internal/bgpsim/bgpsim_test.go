package bgpsim

import (
	"testing"
	"testing/quick"

	"offnetscope/internal/astopo"
	"offnetscope/internal/netmodel"
	"offnetscope/internal/timeline"
)

func testGraph(t *testing.T) *astopo.Graph {
	t.Helper()
	return astopo.Generate(astopo.GenConfig{Seed: 5, FinalASes: 500})
}

func TestAllocatorDisjointPrefixes(t *testing.T) {
	g := testGraph(t)
	alloc, err := NewAllocatorFunc(g, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	var all []netmodel.Prefix
	for as := astopo.ASN(1); int(as) <= g.NumASes(); as++ {
		ps := alloc.PrefixesOf(as)
		if len(ps) == 0 {
			t.Fatalf("AS %d has no prefixes", as)
		}
		all = append(all, ps...)
	}
	if len(all) == 0 {
		t.Fatal("no prefixes allocated")
	}
	for i := 0; i < len(all); i++ {
		if netmodel.IsBogonPrefix(all[i]) {
			t.Fatalf("allocated bogon prefix %v", all[i])
		}
		for j := i + 1; j < len(all); j++ {
			if all[i].Overlaps(all[j]) {
				t.Fatalf("prefixes overlap: %v %v", all[i], all[j])
			}
		}
	}
}

func TestAllocatorSizesScaleWithCategory(t *testing.T) {
	g := testGraph(t)
	alloc, err := NewAllocatorFunc(g, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	last := timeline.Snapshot(timeline.Count() - 1)
	space := func(cat astopo.Category) uint64 {
		var total, n uint64
		for as := astopo.ASN(1); int(as) <= g.NumASes(); as++ {
			if g.CategoryOf(as, last) != cat {
				continue
			}
			n++
			for _, p := range alloc.PrefixesOf(as) {
				total += p.NumAddrs()
			}
		}
		if n == 0 {
			return 0
		}
		return total / n
	}
	// Small worlds may have no XLarge AS; compare the biggest category
	// that exists against Stub.
	var biggest uint64
	for _, cat := range []astopo.Category{astopo.XLarge, astopo.Large, astopo.Medium} {
		if s := space(cat); s > 0 {
			biggest = s
			break
		}
	}
	if stub := space(astopo.Stub); biggest <= stub {
		t.Errorf("largest category avg space (%d) should exceed Stub (%d)", biggest, stub)
	}
}

func TestTrueOwner(t *testing.T) {
	g := testGraph(t)
	alloc, _ := NewAllocatorFunc(g, 5, nil)
	for as := astopo.ASN(1); as <= 20; as++ {
		p := alloc.PrefixesOf(as)[0]
		owner, ok := alloc.TrueOwner(p.First())
		if !ok || owner != as {
			t.Fatalf("TrueOwner(%v) = %d, %v; want %d", p.First(), owner, ok, as)
		}
	}
	if _, ok := alloc.TrueOwner(netmodel.MustParseIP("0.0.0.1")); ok {
		t.Error("unallocated space should have no owner")
	}
}

func TestBuildRIBActiveOnly(t *testing.T) {
	g := testGraph(t)
	alloc, _ := NewAllocatorFunc(g, 5, nil)
	rib := BuildRIB(g, alloc, RouteViews, 0, DefaultNoise(), 9)
	for _, ann := range rib.Announcements {
		if g.Valid(ann.Origin) && !g.Active(ann.Origin, 0) {
			// Hijackers may be any registered AS, but a hijacked origin
			// always has low presence and gets filtered later; genuine
			// owners must be active.
			owner, ok := alloc.TrueOwner(ann.Prefix.First())
			if ok && owner == ann.Origin {
				t.Fatalf("inactive AS %d announced its prefix at snapshot 0", ann.Origin)
			}
		}
	}
}

func TestBuildRIBDeterministic(t *testing.T) {
	g := testGraph(t)
	alloc, _ := NewAllocatorFunc(g, 5, nil)
	a := BuildRIB(g, alloc, RouteViews, 3, DefaultNoise(), 9)
	b := BuildRIB(g, alloc, RouteViews, 3, DefaultNoise(), 9)
	if len(a.Announcements) != len(b.Announcements) {
		t.Fatal("same seed produced different RIBs")
	}
	for i := range a.Announcements {
		if a.Announcements[i] != b.Announcements[i] {
			t.Fatal("same seed produced different announcements")
		}
	}
	c := BuildRIB(g, alloc, RIPERIS, 3, DefaultNoise(), 9)
	if len(a.Announcements) == len(c.Announcements) {
		// Different collectors fork different streams; identical lengths
		// would suggest the collector label is ignored.
		same := true
		for i := range a.Announcements {
			if a.Announcements[i] != c.Announcements[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("collectors produced identical RIBs")
		}
	}
}

func TestIP2ASStabilityFilterDropsHijacks(t *testing.T) {
	g := testGraph(t)
	alloc, _ := NewAllocatorFunc(g, 5, nil)
	victim := astopo.ASN(1)
	p := alloc.PrefixesOf(victim)[0]
	rib := &RIB{Collector: RouteViews, Snapshot: 0, Announcements: []Announcement{
		{Prefix: p, Origin: victim, Presence: 0.95},
		{Prefix: p, Origin: victim + 1, Presence: 0.05}, // hijack
	}}
	m := BuildIP2AS(0, rib)
	asns := m.Lookup(p.First())
	if len(asns) != 1 || asns[0] != victim {
		t.Fatalf("Lookup = %v, want only the victim", asns)
	}
}

func TestIP2ASMOASKept(t *testing.T) {
	p := netmodel.MustParsePrefix("8.8.0.0/16")
	rib := &RIB{Announcements: []Announcement{
		{Prefix: p, Origin: 10, Presence: 0.9},
		{Prefix: p, Origin: 20, Presence: 0.8},
	}}
	m := BuildIP2AS(0, rib)
	asns := m.Lookup(p.First())
	if len(asns) != 2 || asns[0] != 10 || asns[1] != 20 {
		t.Fatalf("MOAS lookup = %v", asns)
	}
	one, ok := m.LookupOne(p.First())
	if !ok || one != 10 {
		t.Fatalf("LookupOne = %d, %v", one, ok)
	}
}

func TestIP2ASBogonsDropped(t *testing.T) {
	rib := &RIB{Announcements: []Announcement{
		{Prefix: netmodel.MustParsePrefix("10.0.0.0/8"), Origin: 5, Presence: 0.9},
	}}
	m := BuildIP2AS(0, rib)
	if m.Len() != 0 {
		t.Fatal("bogon announcement survived the pipeline")
	}
	if got := m.Lookup(netmodel.MustParseIP("10.1.1.1")); got != nil {
		t.Fatalf("bogon lookup = %v", got)
	}
}

func TestIP2ASMergesCollectors(t *testing.T) {
	p := netmodel.MustParsePrefix("9.0.0.0/16")
	q := netmodel.MustParsePrefix("11.0.0.0/16")
	rv := &RIB{Collector: RouteViews, Announcements: []Announcement{{Prefix: p, Origin: 1, Presence: 0.9}}}
	ris := &RIB{Collector: RIPERIS, Announcements: []Announcement{{Prefix: q, Origin: 2, Presence: 0.9}}}
	m := BuildIP2AS(0, rv, ris)
	if m.Len() != 2 {
		t.Fatalf("merged table has %d prefixes", m.Len())
	}
	if asns := m.Lookup(q.First()); len(asns) != 1 || asns[0] != 2 {
		t.Fatalf("RIS-only prefix lookup = %v", asns)
	}
}

func TestBuildMonthlyMapsMostOwnedSpace(t *testing.T) {
	g := testGraph(t)
	alloc, _ := NewAllocatorFunc(g, 5, nil)
	last := timeline.Snapshot(timeline.Count() - 1)
	m := BuildMonthly(g, alloc, last, DefaultNoise(), 9)

	total, correct := 0, 0
	for as := astopo.ASN(1); int(as) <= g.NumASes(); as++ {
		if !g.Active(as, last) {
			continue
		}
		for _, p := range alloc.PrefixesOf(as) {
			total++
			asns := m.Lookup(p.First())
			for _, a := range asns {
				if a == as {
					correct++
					break
				}
			}
		}
	}
	frac := float64(correct) / float64(total)
	if frac < 0.95 {
		t.Fatalf("only %.1f%% of owned prefixes map to the true owner", 100*frac)
	}
}

func TestIP2ASWalkOrdered(t *testing.T) {
	g := testGraph(t)
	alloc, _ := NewAllocatorFunc(g, 5, nil)
	m := BuildMonthly(g, alloc, 0, DefaultNoise(), 9)
	var prev netmodel.Prefix
	first := true
	m.Walk(func(p netmodel.Prefix, asns []astopo.ASN) bool {
		if len(asns) == 0 {
			t.Fatal("prefix mapped to no AS")
		}
		if !first && p.Addr < prev.Addr {
			t.Fatal("walk not in address order")
		}
		prev, first = p, false
		return true
	})
}

func TestIP2ASLookupNeverPanicsQuick(t *testing.T) {
	g := testGraph(t)
	alloc, _ := NewAllocatorFunc(g, 5, nil)
	m := BuildMonthly(g, alloc, 10, DefaultNoise(), 9)
	f := func(raw uint32) bool {
		asns := m.Lookup(netmodel.IP(raw))
		one, ok := m.LookupOne(netmodel.IP(raw))
		if len(asns) == 0 {
			return !ok
		}
		return ok && one == asns[0]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
