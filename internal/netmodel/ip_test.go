package netmodel

import (
	"testing"
	"testing/quick"
)

func TestParseIPRoundTrip(t *testing.T) {
	cases := []string{"0.0.0.0", "1.2.3.4", "8.8.8.8", "192.168.1.255", "255.255.255.255", "10.0.0.1"}
	for _, s := range cases {
		ip, err := ParseIP(s)
		if err != nil {
			t.Fatalf("ParseIP(%q): %v", s, err)
		}
		if got := ip.String(); got != s {
			t.Errorf("round trip %q -> %q", s, got)
		}
	}
}

func TestParseIPRejectsInvalid(t *testing.T) {
	bad := []string{"", "1.2.3", "1.2.3.4.5", "256.1.1.1", "1.2.3.-4", "a.b.c.d", "1..2.3", "01.2.3.4", "1.2.3.4 ", "1.2.3.999"}
	for _, s := range bad {
		if _, err := ParseIP(s); err == nil {
			t.Errorf("ParseIP(%q) unexpectedly succeeded", s)
		}
	}
}

func TestMakeIPOctets(t *testing.T) {
	ip := MakeIP(10, 20, 30, 40)
	if ip != 10<<24|20<<16|30<<8|40 {
		t.Fatalf("MakeIP(10, 20, 30, 40) = %#x", uint32(ip))
	}
	if ip.String() != "10.20.30.40" {
		t.Fatalf("String = %q", ip.String())
	}
}

func TestIPStringRoundTripQuick(t *testing.T) {
	f := func(x uint32) bool {
		ip := IP(x)
		back, err := ParseIP(ip.String())
		return err == nil && back == ip
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestParsePrefix(t *testing.T) {
	p, err := ParsePrefix("10.1.2.3/16")
	if err != nil {
		t.Fatal(err)
	}
	if p.String() != "10.1.0.0/16" {
		t.Fatalf("canonicalised prefix = %q", p)
	}
	if !p.Contains(MustParseIP("10.1.255.255")) {
		t.Error("10.1.255.255 should be inside 10.1.0.0/16")
	}
	if p.Contains(MustParseIP("10.2.0.0")) {
		t.Error("10.2.0.0 should be outside 10.1.0.0/16")
	}
	if p.NumAddrs() != 65536 {
		t.Errorf("NumAddrs = %d", p.NumAddrs())
	}
	if p.Last() != MustParseIP("10.1.255.255") {
		t.Errorf("Last = %v", p.Last())
	}
}

func TestParsePrefixRejectsInvalid(t *testing.T) {
	bad := []string{"", "10.0.0.0", "10.0.0.0/33", "10.0.0.0/-1", "10.0.0.0/x", "300.0.0.0/8", "+10.0.0.0/8"}
	for _, s := range bad {
		if _, err := ParsePrefix(s); err == nil {
			t.Errorf("ParsePrefix(%q) unexpectedly succeeded", s)
		}
	}
}

func TestMaskEdges(t *testing.T) {
	if Mask(0) != 0 {
		t.Error("Mask(0) != 0")
	}
	if Mask(32) != ^IP(0) {
		t.Error("Mask(32) != all ones")
	}
	if Mask(8) != MustParseIP("255.0.0.0") {
		t.Errorf("Mask(8) = %v", Mask(8))
	}
	if Mask(-3) != 0 || Mask(40) != ^IP(0) {
		t.Error("Mask should clamp out-of-range lengths")
	}
}

func TestPrefixOverlaps(t *testing.T) {
	a := MustParsePrefix("10.0.0.0/8")
	b := MustParsePrefix("10.5.0.0/16")
	c := MustParsePrefix("11.0.0.0/8")
	if !a.Overlaps(b) || !b.Overlaps(a) {
		t.Error("nested prefixes should overlap")
	}
	if a.Overlaps(c) || c.Overlaps(a) {
		t.Error("disjoint prefixes should not overlap")
	}
	if !a.Overlaps(a) {
		t.Error("prefix should overlap itself")
	}
}

func TestPrefixContainsPropertyQuick(t *testing.T) {
	// Every address inside a prefix maps back to the same canonical
	// prefix when masked.
	f := func(x uint32, l uint8) bool {
		length := int(l % 33)
		p := MakePrefix(IP(x), length)
		if !p.IsCanonical() {
			return false
		}
		return p.Contains(p.First()) && p.Contains(p.Last())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBogons(t *testing.T) {
	if !IsBogon(MustParseIP("10.1.2.3")) {
		t.Error("10.1.2.3 should be a bogon")
	}
	if !IsBogon(MustParseIP("127.0.0.1")) {
		t.Error("loopback should be a bogon")
	}
	if !IsBogon(MustParseIP("240.0.0.1")) {
		t.Error("class E should be a bogon")
	}
	if IsBogon(MustParseIP("8.8.8.8")) {
		t.Error("8.8.8.8 should not be a bogon")
	}
	if !IsBogonPrefix(MustParsePrefix("10.128.0.0/9")) {
		t.Error("prefix inside 10/8 should be a bogon prefix")
	}
	if !IsBogonPrefix(MustParsePrefix("0.0.0.0/0")) {
		t.Error("default route overlaps everything, including bogons")
	}
	if IsBogonPrefix(MustParsePrefix("8.0.0.0/8")) {
		t.Error("8/8 should not be a bogon prefix")
	}
	if len(Bogons()) == 0 {
		t.Error("Bogons() should be non-empty")
	}
	// Bogons must return a copy, not the internal slice.
	bs := Bogons()
	bs[0] = MustParsePrefix("8.0.0.0/8")
	if IsBogonPrefix(MustParsePrefix("8.1.0.0/16")) {
		t.Error("mutating Bogons() result must not affect the registry")
	}
}
