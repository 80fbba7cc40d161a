package hg

import (
	"strings"
	"testing"
)

func FuzzMatchDomain(f *testing.F) {
	f.Add("*.google.com", "www.google.com")
	f.Add("", "")
	f.Add("*.", "x.")
	f.Add("*.a", "b.a")
	f.Fuzz(func(t *testing.T, pattern, name string) {
		got := MatchDomain(pattern, name)
		// Matching is case-insensitive by definition.
		if got != MatchDomain(pattern, name) {
			t.Fatal("non-deterministic")
		}
		// A concrete (non-wildcard) pattern matches only itself.
		if len(pattern) > 0 && pattern[0] != '*' && got {
			if !equalFold(pattern, name) {
				t.Fatalf("non-wildcard %q matched different name %q", pattern, name)
			}
		}
	})
}

func equalFold(a, b string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := 0; i < len(a); i++ {
		ca, cb := a[i], b[i]
		if 'A' <= ca && ca <= 'Z' {
			ca += 'a' - 'A'
		}
		if 'A' <= cb && cb <= 'Z' {
			cb += 'a' - 'A'
		}
		if ca != cb {
			return false
		}
	}
	return true
}

// matchesToLower is the definition HeaderFingerprint.Matches must
// reproduce: both sides lowercased with strings.ToLower.
func matchesToLower(f HeaderFingerprint, h Header) bool {
	name, fname := strings.ToLower(h.Name), strings.ToLower(f.Name)
	if f.NamePrefix {
		if !strings.HasPrefix(name, fname) {
			return false
		}
	} else if name != fname {
		return false
	}
	if f.Value == "" {
		return true
	}
	if f.ValuePrefix {
		return strings.HasPrefix(strings.ToLower(h.Value), strings.ToLower(f.Value))
	}
	return strings.EqualFold(h.Value, f.Value)
}

func FuzzHeaderFingerprintMatches(f *testing.F) {
	f.Add("Server", "gvs 1.0", "server", "GVS")
	f.Add("X-Netflix.request-id", "r", "X-Netflix", "")
	f.Add("\u212aey", "\u212a", "key", "k")                     // the Kelvin sign lowercases to ASCII "k"
	f.Add("\u0130d", "\u0130nfo", "id", "i")                    // dotted capital I lowercases to "i"
	f.Add("server\xff", "nginx\xc3", "SERVER\xff", "NGINX\xc3") // invalid UTF-8
	f.Add("", "", "", "")
	f.Fuzz(func(t *testing.T, name, value, fname, fvalue string) {
		h := Header{Name: name, Value: value}
		for _, namePrefix := range []bool{false, true} {
			for _, valuePrefix := range []bool{false, true} {
				fp := HeaderFingerprint{Name: fname, NamePrefix: namePrefix, Value: fvalue, ValuePrefix: valuePrefix}
				if got, want := fp.Matches(h), matchesToLower(fp, h); got != want {
					t.Fatalf("%+v.Matches(%+v) = %v, strings.ToLower says %v", fp, h, got, want)
				}
			}
		}
		if got, want := HasLowerPrefix(value, fvalue), strings.HasPrefix(strings.ToLower(value), strings.ToLower(fvalue)); got != want {
			t.Fatalf("HasLowerPrefix(%q, %q) = %v, strings.ToLower says %v", value, fvalue, got, want)
		}
	})
}
