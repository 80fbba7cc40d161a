package astopo

import "testing"

func TestCountryRegistry(t *testing.T) {
	all := Countries()
	if len(all) < 50 {
		t.Fatalf("registry has only %d countries", len(all))
	}
	seen := map[string]bool{}
	for _, c := range all {
		if len(c.Code) != 2 {
			t.Errorf("bad code %q", c.Code)
		}
		if seen[c.Code] {
			t.Errorf("duplicate code %q", c.Code)
		}
		seen[c.Code] = true
		if c.Users <= 0 {
			t.Errorf("%s has no users", c.Code)
		}
		if int(c.Continent) >= NumContinents {
			t.Errorf("%s has invalid continent", c.Code)
		}
	}
	for i := 1; i < len(all); i++ {
		if all[i-1].Code >= all[i].Code {
			t.Fatal("Countries() not sorted by code")
		}
	}
}

func TestCountryByCode(t *testing.T) {
	c, ok := CountryByCode("BR")
	if !ok || c.Name != "Brazil" || c.Continent != SouthAmerica {
		t.Fatalf("BR = %+v, %v", c, ok)
	}
	if _, ok := CountryByCode("ZZ"); ok {
		t.Fatal("unknown code resolved")
	}
}

func TestCountriesIn(t *testing.T) {
	perContinent := make([]int, NumContinents)
	for _, c := range Countries() {
		if int(c.Continent) >= NumContinents {
			t.Fatalf("%s has invalid continent", c.Code)
		}
		perContinent[c.Continent]++
	}
	total := 0
	for _, cont := range AllContinents() {
		if perContinent[cont] == 0 {
			t.Errorf("continent %v has no countries", cont)
		}
		total += perContinent[cont]
	}
	if total != len(Countries()) {
		t.Errorf("continent partition covers %d of %d countries", total, len(Countries()))
	}
}

func TestWorldUsers(t *testing.T) {
	var users float64
	for _, c := range Countries() {
		users += c.Users
	}
	if users < 3000 {
		t.Errorf("world users = %v millions, implausibly low", users)
	}
}

func TestContinentString(t *testing.T) {
	if Asia.String() != "Asia" || SouthAmerica.String() != "South America" {
		t.Error("continent names wrong")
	}
	if Continent(99).String() != "Unknown" {
		t.Error("invalid continent should stringify as Unknown")
	}
	if len(AllContinents()) != NumContinents {
		t.Error("AllContinents length mismatch")
	}
}
