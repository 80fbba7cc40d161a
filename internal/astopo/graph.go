package astopo

import "offnetscope/internal/timeline"

// ASN is an autonomous system number. The simulator allocates them
// densely from 1; 0 is never a valid ASN.
type ASN uint32

// Category classifies an AS by provider-peer customer cone size, exactly
// as §6.3 does: Stub (cone of only itself), Small (≤10), Medium (≤100),
// Large (≤1000), XLarge (>1000).
type Category uint8

// Categories from smallest to largest.
const (
	Stub Category = iota
	Small
	Medium
	Large
	XLarge
	numCategories
)

// NumCategories is the number of size categories.
const NumCategories = int(numCategories)

var categoryNames = [...]string{"Stub", "Small", "Medium", "Large", "XLarge"}

// String implements fmt.Stringer.
func (c Category) String() string {
	if int(c) < len(categoryNames) {
		return categoryNames[c]
	}
	return "Unknown"
}

// AllCategories returns the categories from Stub to XLarge.
func AllCategories() []Category {
	return []Category{Stub, Small, Medium, Large, XLarge}
}

// Categorize maps a customer cone size (including the AS itself) to its
// category.
func Categorize(coneSize int) Category {
	switch {
	case coneSize <= 1:
		return Stub
	case coneSize <= 10:
		return Small
	case coneSize <= 100:
		return Medium
	case coneSize <= 1000:
		return Large
	default:
		return XLarge
	}
}

// Graph is the AS-level topology: the customer-provider edges that make
// up the provider-peer customer cone, each AS's country, and the
// snapshot at which each AS first appears in BGP. ASNs are dense
// indices into the internal slices.
//
// Build a Graph with NewGraph plus AddAS/AddCustomer, or via Generate.
type Graph struct {
	country  []string            // per ASN-1: ISO country code
	born     []timeline.Snapshot // per ASN-1: first active snapshot
	children [][]ASN             // per ASN-1: direct customers
	parents  [][]ASN             // per ASN-1: direct providers
}

// NewGraph returns an empty graph.
func NewGraph() *Graph { return &Graph{} }

// AddAS registers a new AS and returns its number. born is the first
// snapshot the AS is active in; country is its ISO code.
func (g *Graph) AddAS(country string, born timeline.Snapshot) ASN {
	g.country = append(g.country, country)
	g.born = append(g.born, born)
	g.children = append(g.children, nil)
	g.parents = append(g.parents, nil)
	return ASN(len(g.country))
}

// NumASes returns the number of ASes ever registered.
func (g *Graph) NumASes() int { return len(g.country) }

func (g *Graph) idx(as ASN) int { return int(as) - 1 }

// Valid reports whether as names a registered AS.
func (g *Graph) Valid(as ASN) bool { return as >= 1 && int(as) <= len(g.country) }

// AddCustomer records a provider→customer edge.
func (g *Graph) AddCustomer(provider, customer ASN) {
	g.children[g.idx(provider)] = append(g.children[g.idx(provider)], customer)
	g.parents[g.idx(customer)] = append(g.parents[g.idx(customer)], provider)
}

// Country returns the AS's ISO country code.
func (g *Graph) Country(as ASN) string { return g.country[g.idx(as)] }

// ContinentOf returns the AS's continent via the country registry.
func (g *Graph) ContinentOf(as ASN) (Continent, bool) {
	c, ok := CountryByCode(g.country[g.idx(as)])
	if !ok {
		return 0, false
	}
	return c.Continent, true
}

// Born returns the AS's first active snapshot.
func (g *Graph) Born(as ASN) timeline.Snapshot { return g.born[g.idx(as)] }

// Active reports whether the AS exists at snapshot s.
func (g *Graph) Active(as ASN, s timeline.Snapshot) bool {
	return g.Valid(as) && g.born[g.idx(as)] <= s
}

// ActiveASes returns all ASes active at s, in ascending ASN order.
func (g *Graph) ActiveASes(s timeline.Snapshot) []ASN {
	var out []ASN
	for i := range g.born {
		if g.born[i] <= s {
			out = append(out, ASN(i+1))
		}
	}
	return out
}

// Customers returns the direct customers of as.
func (g *Graph) Customers(as ASN) []ASN { return g.children[g.idx(as)] }

// Providers returns the direct providers of as.
func (g *Graph) Providers(as ASN) []ASN { return g.parents[g.idx(as)] }

// ConeSize returns the provider-peer customer cone size of as at
// snapshot s: the number of active ASes reachable over customer edges,
// including as itself. cap, when positive, bounds the work: once the
// cone exceeds cap the traversal stops and returns a value > cap. The
// size categories only need cones resolved up to 1001, so callers pass
// cap=1001 to classify even tier-1 ASes cheaply.
func (g *Graph) ConeSize(as ASN, s timeline.Snapshot, cap int) int {
	if !g.Active(as, s) {
		return 0
	}
	visited := map[ASN]struct{}{as: {}}
	stack := []ASN{as}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, c := range g.children[g.idx(n)] {
			if !g.Active(c, s) {
				continue
			}
			if _, seen := visited[c]; seen {
				continue
			}
			visited[c] = struct{}{}
			if cap > 0 && len(visited) > cap {
				return len(visited)
			}
			stack = append(stack, c)
		}
	}
	return len(visited)
}

// CategoryOf classifies an AS at snapshot s.
func (g *Graph) CategoryOf(as ASN, s timeline.Snapshot) Category {
	return Categorize(g.ConeSize(as, s, 1001))
}

// Descendants returns the union of customer cones of the seed ASes at s
// (each seed included), as a set. This is the primitive behind the
// "serve the customer cone too" coverage expansion (Fig. 8 / Fig. 12):
// it runs in one traversal regardless of how many seeds there are.
func (g *Graph) Descendants(seeds []ASN, s timeline.Snapshot) map[ASN]struct{} {
	visited := make(map[ASN]struct{})
	var stack []ASN
	for _, as := range seeds {
		if !g.Active(as, s) {
			continue
		}
		if _, seen := visited[as]; !seen {
			visited[as] = struct{}{}
			stack = append(stack, as)
		}
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, c := range g.children[g.idx(n)] {
			if !g.Active(c, s) {
				continue
			}
			if _, seen := visited[c]; seen {
				continue
			}
			visited[c] = struct{}{}
			stack = append(stack, c)
		}
	}
	return visited
}

// CategoryShares returns, for snapshot s, the fraction of active ASes in
// each category. The paper reports these as remarkably stable
// (~85 % Stub, ~12 % Small, ~2.6 % Medium, <0.5 % Large, <0.1 % XLarge).
func (g *Graph) CategoryShares(s timeline.Snapshot) [NumCategories]float64 {
	var counts [NumCategories]int
	total := 0
	for i := range g.born {
		if g.born[i] > s {
			continue
		}
		total++
		counts[g.CategoryOf(ASN(i+1), s)]++
	}
	var shares [NumCategories]float64
	if total == 0 {
		return shares
	}
	for i, c := range counts {
		shares[i] = float64(c) / float64(total)
	}
	return shares
}
