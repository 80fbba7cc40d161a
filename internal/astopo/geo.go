// Package astopo models the AS-level Internet the study is grounded in:
// the AS relationship graph with CAIDA-style provider-peer customer
// cones, AS size categories, the AS-to-organization registry used to find
// hypergiant on-net ASes, and AS-to-country/continent geography.
package astopo

import "sort"

// Continent identifies one of the six regions the paper reports growth
// for (Fig. 6).
type Continent uint8

// Continents in the paper's presentation order.
const (
	Asia Continent = iota
	Europe
	SouthAmerica
	NorthAmerica
	Africa
	Oceania
	numContinents
)

// NumContinents is the number of regions.
const NumContinents = int(numContinents)

var continentNames = [...]string{"Asia", "Europe", "South America", "North America", "Africa", "Oceania"}

// String implements fmt.Stringer.
func (c Continent) String() string {
	if int(c) < len(continentNames) {
		return continentNames[c]
	}
	return "Unknown"
}

// AllContinents returns the regions in presentation order.
func AllContinents() []Continent {
	return []Continent{Asia, Europe, SouthAmerica, NorthAmerica, Africa, Oceania}
}

// Country describes one country in the geography registry.
type Country struct {
	Code      string // ISO 3166-1 alpha-2
	Name      string
	Continent Continent
	// Users is the country's Internet user population in millions,
	// used to weight coverage maps (Fig. 7-9) and to size AS market
	// shares in the APNIC-style population dataset.
	Users float64
}

// countries is the built-in registry: a representative subset of the
// world large enough to exercise every regional analysis. User counts
// are ballpark 2021 figures in millions.
var countries = []Country{
	{"CN", "China", Asia, 1000}, {"IN", "India", Asia, 750}, {"ID", "Indonesia", Asia, 200},
	{"JP", "Japan", Asia, 115}, {"PK", "Pakistan", Asia, 110}, {"BD", "Bangladesh", Asia, 110},
	{"PH", "Philippines", Asia, 75}, {"VN", "Vietnam", Asia, 70}, {"TR", "Turkey", Asia, 70},
	{"IR", "Iran", Asia, 70}, {"TH", "Thailand", Asia, 50}, {"KR", "South Korea", Asia, 50},
	{"MY", "Malaysia", Asia, 28}, {"SA", "Saudi Arabia", Asia, 33}, {"IQ", "Iraq", Asia, 30},
	{"UZ", "Uzbekistan", Asia, 22}, {"TW", "Taiwan", Asia, 21}, {"LK", "Sri Lanka", Asia, 11},
	{"KZ", "Kazakhstan", Asia, 15}, {"IL", "Israel", Asia, 8},

	{"RU", "Russia", Europe, 120}, {"DE", "Germany", Europe, 78}, {"GB", "United Kingdom", Europe, 65},
	{"FR", "France", Europe, 60}, {"IT", "Italy", Europe, 50}, {"ES", "Spain", Europe, 43},
	{"PL", "Poland", Europe, 32}, {"UA", "Ukraine", Europe, 30}, {"NL", "Netherlands", Europe, 16},
	{"RO", "Romania", Europe, 16}, {"SE", "Sweden", Europe, 10}, {"CZ", "Czechia", Europe, 9},
	{"GR", "Greece", Europe, 8}, {"PT", "Portugal", Europe, 8}, {"BE", "Belgium", Europe, 10},
	{"CH", "Switzerland", Europe, 8}, {"AT", "Austria", Europe, 8}, {"NO", "Norway", Europe, 5},

	{"BR", "Brazil", SouthAmerica, 160}, {"CO", "Colombia", SouthAmerica, 35},
	{"AR", "Argentina", SouthAmerica, 37}, {"PE", "Peru", SouthAmerica, 20},
	{"VE", "Venezuela", SouthAmerica, 20}, {"CL", "Chile", SouthAmerica, 16},
	{"EC", "Ecuador", SouthAmerica, 11}, {"BO", "Bolivia", SouthAmerica, 6},
	{"PY", "Paraguay", SouthAmerica, 5}, {"UY", "Uruguay", SouthAmerica, 3},

	{"US", "United States", NorthAmerica, 300}, {"MX", "Mexico", NorthAmerica, 92},
	{"CA", "Canada", NorthAmerica, 35}, {"GT", "Guatemala", NorthAmerica, 8},
	{"DO", "Dominican Republic", NorthAmerica, 8}, {"CU", "Cuba", NorthAmerica, 7},
	{"HN", "Honduras", NorthAmerica, 4}, {"CR", "Costa Rica", NorthAmerica, 4},

	{"NG", "Nigeria", Africa, 110}, {"EG", "Egypt", Africa, 60}, {"ZA", "South Africa", Africa, 40},
	{"KE", "Kenya", Africa, 22}, {"MA", "Morocco", Africa, 28}, {"DZ", "Algeria", Africa, 26},
	{"ET", "Ethiopia", Africa, 24}, {"GH", "Ghana", Africa, 16}, {"TZ", "Tanzania", Africa, 15},
	{"TN", "Tunisia", Africa, 8}, {"SN", "Senegal", Africa, 7}, {"CI", "Ivory Coast", Africa, 10},

	{"AU", "Australia", Oceania, 22}, {"NZ", "New Zealand", Oceania, 4},
	{"PG", "Papua New Guinea", Oceania, 1.5}, {"FJ", "Fiji", Oceania, 0.5},
}

var countryByCode = func() map[string]*Country {
	m := make(map[string]*Country, len(countries))
	for i := range countries {
		m[countries[i].Code] = &countries[i]
	}
	return m
}()

// Countries returns the full registry sorted by code.
func Countries() []Country {
	out := make([]Country, len(countries))
	copy(out, countries)
	sort.Slice(out, func(i, j int) bool { return out[i].Code < out[j].Code })
	return out
}

// CountryByCode looks up a country by ISO code.
func CountryByCode(code string) (Country, bool) {
	c, ok := countryByCode[code]
	if !ok {
		return Country{}, false
	}
	return *c, true
}
