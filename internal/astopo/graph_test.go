package astopo

import (
	"testing"
	"testing/quick"

	"offnetscope/internal/timeline"
)

func TestCategorize(t *testing.T) {
	cases := []struct {
		cone int
		want Category
	}{
		{0, Stub}, {1, Stub}, {2, Small}, {10, Small}, {11, Medium},
		{100, Medium}, {101, Large}, {1000, Large}, {1001, XLarge}, {50000, XLarge},
	}
	for _, c := range cases {
		if got := Categorize(c.cone); got != c.want {
			t.Errorf("Categorize(%d) = %v, want %v", c.cone, got, c.want)
		}
	}
}

func TestCategoryString(t *testing.T) {
	if Stub.String() != "Stub" || XLarge.String() != "XLarge" {
		t.Error("category names wrong")
	}
	if Category(99).String() != "Unknown" {
		t.Error("out-of-range category should stringify as Unknown")
	}
	if len(AllCategories()) != NumCategories {
		t.Error("AllCategories length mismatch")
	}
}

// chainGraph builds provider → customer chains for cone tests:
//
//	t1 ─▶ m ─▶ s1 ─▶ stub1
//	        └▶ s2 ─▶ stub2 (born at snapshot 5)
func chainGraph() (*Graph, map[string]ASN) {
	g := NewGraph()
	ids := map[string]ASN{
		"t1":    g.AddAS("US", 0),
		"m":     g.AddAS("DE", 0),
		"s1":    g.AddAS("BR", 0),
		"s2":    g.AddAS("BR", 0),
		"stub1": g.AddAS("BR", 0),
		"stub2": g.AddAS("CO", 5),
	}
	g.AddCustomer(ids["t1"], ids["m"])
	g.AddCustomer(ids["m"], ids["s1"])
	g.AddCustomer(ids["m"], ids["s2"])
	g.AddCustomer(ids["s1"], ids["stub1"])
	g.AddCustomer(ids["s2"], ids["stub2"])
	return g, ids
}

func TestConeSize(t *testing.T) {
	g, ids := chainGraph()
	s := timeline.Snapshot(10)
	cases := []struct {
		name string
		want int
	}{
		{"stub1", 1}, {"s1", 2}, {"s2", 2}, {"m", 5}, {"t1", 6},
	}
	for _, c := range cases {
		if got := g.ConeSize(ids[c.name], s, 0); got != c.want {
			t.Errorf("ConeSize(%s) = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestConeSizeRespectsBirth(t *testing.T) {
	g, ids := chainGraph()
	early := timeline.Snapshot(0)
	// stub2 is born at snapshot 5, so s2's cone at snapshot 0 is just itself.
	if got := g.ConeSize(ids["s2"], early, 0); got != 1 {
		t.Errorf("cone of s2 before stub2's birth = %d, want 1", got)
	}
	if got := g.ConeSize(ids["m"], early, 0); got != 4 {
		t.Errorf("cone of m before stub2's birth = %d, want 4", got)
	}
	if got := g.ConeSize(ids["stub2"], early, 0); got != 0 {
		t.Errorf("cone of unborn AS = %d, want 0", got)
	}
}

func TestConeSizeCap(t *testing.T) {
	g := NewGraph()
	top := g.AddAS("US", 0)
	for i := 0; i < 50; i++ {
		g.AddCustomer(top, g.AddAS("US", 0))
	}
	if got := g.ConeSize(top, 0, 10); got <= 10 {
		t.Errorf("capped cone = %d, want > cap", got)
	}
	if got := g.ConeSize(top, 0, 0); got != 51 {
		t.Errorf("uncapped cone = %d, want 51", got)
	}
}

func TestConeDiamondNotDoubleCounted(t *testing.T) {
	// p has two customers that share a stub; the cone is a set.
	g := NewGraph()
	p := g.AddAS("US", 0)
	a := g.AddAS("US", 0)
	b := g.AddAS("US", 0)
	shared := g.AddAS("US", 0)
	g.AddCustomer(p, a)
	g.AddCustomer(p, b)
	g.AddCustomer(a, shared)
	g.AddCustomer(b, shared)
	if got := g.ConeSize(p, 0, 0); got != 4 {
		t.Errorf("diamond cone = %d, want 4", got)
	}
}

func TestConeMembers(t *testing.T) {
	g, ids := chainGraph()
	cone := g.Descendants([]ASN{ids["m"]}, 10)
	for _, name := range []string{"m", "s1", "s2", "stub1", "stub2"} {
		if _, ok := cone[ids[name]]; !ok {
			t.Errorf("cone of m lacks %s", name)
		}
	}
	if len(cone) != 5 {
		t.Fatalf("cone members = %v", cone)
	}
	if cone := g.Descendants([]ASN{ids["stub2"]}, 0); len(cone) != 0 {
		t.Errorf("cone of unborn AS = %v, want empty", cone)
	}
}

func TestDescendantsUnion(t *testing.T) {
	g, ids := chainGraph()
	set := g.Descendants([]ASN{ids["s1"], ids["s2"]}, 10)
	if len(set) != 4 {
		t.Fatalf("union cone size = %d, want 4", len(set))
	}
	// Unborn seeds are skipped.
	set = g.Descendants([]ASN{ids["stub2"]}, 0)
	if len(set) != 0 {
		t.Fatal("unborn seed should contribute nothing")
	}
}

func TestActiveASes(t *testing.T) {
	g, _ := chainGraph()
	if got := len(g.ActiveASes(0)); got != 5 {
		t.Errorf("active at 0 = %d, want 5", got)
	}
	if got := len(g.ActiveASes(5)); got != 6 {
		t.Errorf("active at 5 = %d, want 6", got)
	}
}

func TestContinentOf(t *testing.T) {
	g, ids := chainGraph()
	cont, ok := g.ContinentOf(ids["s1"])
	if !ok || cont != SouthAmerica {
		t.Errorf("ContinentOf(BR) = %v, %v", cont, ok)
	}
	bad := g.AddAS("ZZ", 0)
	if _, ok := g.ContinentOf(bad); ok {
		t.Error("unknown country should not resolve")
	}
}

func TestGenerateShapes(t *testing.T) {
	g := Generate(GenConfig{Seed: 1, FinalASes: 3000})
	last := timeline.Snapshot(timeline.Count() - 1)
	total := len(g.ActiveASes(last))
	if total < 2900 || total > 3100 {
		t.Fatalf("final AS count = %d, want ~3000", total)
	}
	first := len(g.ActiveASes(0))
	ratio := float64(first) / float64(total)
	if ratio < 0.55 || ratio > 0.72 {
		t.Errorf("initial fraction = %v, want ~0.63", ratio)
	}
	shares := g.CategoryShares(last)
	if shares[Stub] < 0.70 || shares[Stub] > 0.92 {
		t.Errorf("stub share = %v, want ~0.85", shares[Stub])
	}
	if shares[Small] < 0.05 || shares[Small] > 0.25 {
		t.Errorf("small share = %v, want ~0.12", shares[Small])
	}
	if shares[XLarge] > 0.01 {
		t.Errorf("xlarge share = %v, want < 1%%", shares[XLarge])
	}
	// At least one genuinely XLarge AS must exist.
	foundXL := false
	for _, as := range g.ActiveASes(last) {
		if g.CategoryOf(as, last) == XLarge {
			foundXL = true
			break
		}
	}
	if !foundXL {
		t.Error("no XLarge AS generated")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(GenConfig{Seed: 7, FinalASes: 800})
	b := Generate(GenConfig{Seed: 7, FinalASes: 800})
	if a.NumASes() != b.NumASes() {
		t.Fatal("same seed produced different AS counts")
	}
	for i := 1; i <= a.NumASes(); i++ {
		as := ASN(i)
		if a.Country(as) != b.Country(as) || a.Born(as) != b.Born(as) {
			t.Fatalf("AS %d differs between runs", i)
		}
		if len(a.Customers(as)) != len(b.Customers(as)) {
			t.Fatalf("AS %d customer lists differ", i)
		}
	}
}

func TestGenerateCategorySharesStable(t *testing.T) {
	g := Generate(GenConfig{Seed: 3, FinalASes: 2000})
	s0 := g.CategoryShares(0)
	sLast := g.CategoryShares(timeline.Snapshot(timeline.Count() - 1))
	// The paper highlights that category shares are stable over the
	// whole window despite 45k→71k growth.
	for _, c := range AllCategories() {
		diff := s0[c] - sLast[c]
		if diff < 0 {
			diff = -diff
		}
		if diff > 0.08 {
			t.Errorf("category %v share drifted %v → %v", c, s0[c], sLast[c])
		}
	}
}

func TestConeMonotoneOverTimeQuick(t *testing.T) {
	// Property: with static edges and monotone activity, cones only grow.
	g := Generate(GenConfig{Seed: 11, FinalASes: 600})
	f := func(asRaw uint16, s1, s2 uint8) bool {
		as := ASN(int(asRaw)%g.NumASes() + 1)
		a := timeline.Snapshot(int(s1) % timeline.Count())
		b := timeline.Snapshot(int(s2) % timeline.Count())
		if a > b {
			a, b = b, a
		}
		return g.ConeSize(as, a, 0) <= g.ConeSize(as, b, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
