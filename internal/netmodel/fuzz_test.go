package netmodel

import (
	"net/netip"
	"testing"
)

// Fuzz targets double as robustness tests: go test runs the seed corpus
// on every invocation, and `go test -fuzz` explores further.

// FuzzParseIP holds ParseIP and ParseIPBytes to net/netip.ParseAddr
// restricted to plain IPv4 (Is4): the same strings accepted, the same
// address for each, and the same error from both forms.
func FuzzParseIP(f *testing.F) {
	for _, seed := range []string{
		"1.2.3.4", "255.255.255.255", "0.0.0.0", "999.1.1.1", "", "a.b.c.d", "1.2.3.4.5", "01.2.3.4",
		// Signed octets, which strconv.Atoi would read.
		"+1.2.3.4", "-0.1.2.3", "1.2.3.+4", "+01.2.3.4",
		"1.2.3", "1..2.3", "1.2.3.", "256.1.1.1", "1.2.3.0256", "::ffff:1.2.3.4", "1.2.3.4%eth0",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		ip, err := ParseIP(s)
		ipb, errb := ParseIPBytes([]byte(s))
		if ip != ipb || errString(err) != errString(errb) {
			t.Fatalf("%q: ParseIP %v (%v), ParseIPBytes %v (%v)", s, ip, err, ipb, errb)
		}
		addr, aerr := netip.ParseAddr(s)
		if want := aerr == nil && addr.Is4(); (err == nil) != want {
			t.Fatalf("%q: ParseIP err %v, netip.ParseAddr %v (%v)", s, err, addr, aerr)
		}
		if err != nil {
			return
		}
		if want := addr.As4(); ip != MakeIP(want[0], want[1], want[2], want[3]) {
			t.Fatalf("%q: ParseIP %v, netip.ParseAddr %v", s, ip, addr)
		}
		// Valid parses must round-trip exactly.
		back, err := ParseIP(ip.String())
		if err != nil || back != ip {
			t.Fatalf("round trip failed for %q → %v", s, ip)
		}
	})
}

// errString is an error's text, or "" for none.
func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

func FuzzParsePrefix(f *testing.F) {
	for _, seed := range []string{"10.0.0.0/8", "1.2.3.4/32", "0.0.0.0/0", "1.2.3.4/33", "x/8", "1.2.3.4/"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		p, err := ParsePrefix(s)
		if err != nil {
			return
		}
		if !p.IsCanonical() {
			t.Fatalf("ParsePrefix(%q) returned non-canonical %v", s, p)
		}
		back, err := ParsePrefix(p.String())
		if err != nil || back != p {
			t.Fatalf("round trip failed for %q → %v", s, p)
		}
		if !p.Contains(p.First()) || !p.Contains(p.Last()) {
			t.Fatalf("prefix %v does not contain its own range", p)
		}
	})
}
