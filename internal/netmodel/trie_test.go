package netmodel

import (
	"testing"
	"testing/quick"
)

func TestTrieEmpty(t *testing.T) {
	var tr Trie[int]
	if tr.Len() != 0 {
		t.Fatal("empty trie should have length 0")
	}
	if _, ok := tr.Lookup(MustParseIP("1.2.3.4")); ok {
		t.Fatal("lookup in empty trie should miss")
	}
}

func TestTrieLongestPrefixMatch(t *testing.T) {
	var tr Trie[string]
	tr.Insert(MustParsePrefix("10.0.0.0/8"), "eight")
	tr.Insert(MustParsePrefix("10.1.0.0/16"), "sixteen")
	tr.Insert(MustParsePrefix("10.1.2.0/24"), "twentyfour")

	cases := []struct {
		ip   string
		want string
	}{
		{"10.1.2.3", "twentyfour"},
		{"10.1.3.3", "sixteen"},
		{"10.2.0.1", "eight"},
	}
	for _, c := range cases {
		got, ok := tr.Lookup(MustParseIP(c.ip))
		if !ok || got != c.want {
			t.Errorf("Lookup(%s) = %q, %v; want %q", c.ip, got, ok, c.want)
		}
	}
	if _, ok := tr.Lookup(MustParseIP("11.0.0.1")); ok {
		t.Error("lookup outside any prefix should miss")
	}
}

func TestTrieLookupPrefix(t *testing.T) {
	var tr Trie[int]
	tr.Insert(MustParsePrefix("192.168.0.0/16"), 1)
	tr.Insert(MustParsePrefix("192.168.4.0/22"), 2)
	p, v, ok := tr.LookupPrefix(MustParseIP("192.168.5.9"))
	if !ok || v != 2 || p.String() != "192.168.4.0/22" {
		t.Fatalf("LookupPrefix = %v %d %v", p, v, ok)
	}
	p, v, ok = tr.LookupPrefix(MustParseIP("192.168.200.1"))
	if !ok || v != 1 || p.String() != "192.168.0.0/16" {
		t.Fatalf("LookupPrefix = %v %d %v", p, v, ok)
	}
}

func TestTrieDefaultRoute(t *testing.T) {
	var tr Trie[string]
	tr.Insert(MustParsePrefix("0.0.0.0/0"), "default")
	got, ok := tr.Lookup(MustParseIP("203.0.113.77"))
	if !ok || got != "default" {
		t.Fatalf("default route lookup = %q, %v", got, ok)
	}
}

func TestTrieHostRoute(t *testing.T) {
	var tr Trie[string]
	tr.Insert(MustParsePrefix("1.2.3.4/32"), "host")
	if got, ok := tr.Lookup(MustParseIP("1.2.3.4")); !ok || got != "host" {
		t.Fatalf("host route lookup = %q %v", got, ok)
	}
	if _, ok := tr.Lookup(MustParseIP("1.2.3.5")); ok {
		t.Fatal("adjacent address must not match /32")
	}
}

func TestTrieInsertReplace(t *testing.T) {
	var tr Trie[int]
	p := MustParsePrefix("10.0.0.0/8")
	if !tr.Insert(p, 1) {
		t.Fatal("first insert should be fresh")
	}
	if tr.Insert(p, 2) {
		t.Fatal("second insert should replace, not create")
	}
	if tr.Len() != 1 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if got, v, ok := tr.LookupPrefix(MustParseIP("10.1.1.1")); !ok || got != p || v != 2 {
		t.Fatalf("LookupPrefix = %v %d %v", got, v, ok)
	}
}

func TestTrieWalkOrderAndEarlyStop(t *testing.T) {
	var tr Trie[int]
	prefixes := []string{"10.0.0.0/8", "10.0.0.0/16", "11.0.0.0/8", "9.0.0.0/8"}
	for i, s := range prefixes {
		tr.Insert(MustParsePrefix(s), i)
	}
	var seen []string
	tr.Walk(func(p Prefix, _ int) bool {
		seen = append(seen, p.String())
		return true
	})
	want := []string{"9.0.0.0/8", "10.0.0.0/8", "10.0.0.0/16", "11.0.0.0/8"}
	if len(seen) != len(want) {
		t.Fatalf("walk visited %v", seen)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("walk order %v, want %v", seen, want)
		}
	}
	count := 0
	tr.Walk(func(Prefix, int) bool {
		count++
		return count < 2
	})
	if count != 2 {
		t.Fatalf("early stop visited %d", count)
	}
}

func TestTrieAgainstLinearScanQuick(t *testing.T) {
	// Property: trie longest-prefix match agrees with a brute-force scan
	// over the inserted prefixes.
	f := func(seeds []uint32, probe uint32) bool {
		var tr Trie[int]
		type entry struct {
			p Prefix
			v int
		}
		var entries []entry
		for i, s := range seeds {
			p := MakePrefix(IP(s), int(s%33))
			if tr.Insert(p, i) {
				entries = append(entries, entry{p, i})
			} else {
				// Replaced: update the linear model too.
				for j := range entries {
					if entries[j].p == p {
						entries[j].v = i
					}
				}
			}
		}
		bestLen, bestVal, found := -1, 0, false
		for _, e := range entries {
			if e.p.Contains(IP(probe)) && int(e.p.Len) > bestLen {
				bestLen, bestVal, found = int(e.p.Len), e.v, true
			}
		}
		got, ok := tr.Lookup(IP(probe))
		if ok != found {
			return false
		}
		return !found || got == bestVal
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
