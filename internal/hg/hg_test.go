package hg

import (
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	all := All()
	if len(all) != Count || Count != 23 {
		t.Fatalf("registry has %d entries, want 23", len(all))
	}
	seen := map[string]bool{}
	for _, h := range all {
		if h.ID == None {
			t.Errorf("%s has zero ID", h.Name)
		}
		if h.Keyword == "" || h.Keyword != strings.ToLower(h.Keyword) {
			t.Errorf("%s keyword %q must be non-empty lowercase", h.Name, h.Keyword)
		}
		if len(h.OrgNames) == 0 {
			t.Errorf("%s has no organization names", h.Name)
		}
		for _, org := range h.OrgNames {
			if !strings.Contains(strings.ToLower(org), h.Keyword) {
				t.Errorf("%s org name %q does not contain keyword %q", h.Name, org, h.Keyword)
			}
		}
		if len(h.Domains) == 0 {
			t.Errorf("%s has no domains", h.Name)
		}
		if seen[h.Keyword] {
			t.Errorf("duplicate keyword %q", h.Keyword)
		}
		seen[h.Keyword] = true
		if h.ID.String() != h.Name {
			t.Errorf("ID.String() = %q, want %q", h.ID.String(), h.Name)
		}
	}
}

func TestTop4(t *testing.T) {
	top := Top4()
	want := []ID{Google, Netflix, Facebook, Akamai}
	for i, id := range want {
		if top[i] != id {
			t.Fatalf("Top4 = %v", top)
		}
		if !IsTop4(id) {
			t.Errorf("IsTop4(%v) = false", id)
		}
	}
	if IsTop4(Cloudflare) || IsTop4(None) {
		t.Error("non-top-4 misclassified")
	}
}

func TestByName(t *testing.T) {
	h, ok := ByName("google")
	if !ok || h.ID != Google {
		t.Fatalf("ByName(google) = %v, %v", h, ok)
	}
	if _, ok := ByName("notahypergiant"); ok {
		t.Fatal("unknown name resolved")
	}
}

func TestIDStringBounds(t *testing.T) {
	if None.String() != "None" || ID(-1).String() != "None" || ID(999).String() != "None" {
		t.Error("out-of-range IDs should stringify as None")
	}
}

func TestHeaderFingerprintMatching(t *testing.T) {
	cases := []struct {
		fp    HeaderFingerprint
		hd    Header
		match bool
	}{
		// exact name, exact value, case-insensitive
		{HeaderFingerprint{Name: "Server", Value: "AkamaiGHost"}, Header{"server", "akamaighost"}, true},
		{HeaderFingerprint{Name: "Server", Value: "AkamaiGHost"}, Header{"Server", "nginx"}, false},
		// name only
		{HeaderFingerprint{Name: "X-FB-Debug"}, Header{"X-FB-Debug", "abc123=="}, true},
		{HeaderFingerprint{Name: "X-FB-Debug"}, Header{"X-FB-Debug-2", "x"}, false},
		// value prefix
		{HeaderFingerprint{Name: "Server", Value: "gvs", ValuePrefix: true}, Header{"Server", "gvs 1.0"}, true},
		{HeaderFingerprint{Name: "Server", Value: "gvs", ValuePrefix: true}, Header{"Server", "gws"}, false},
		// name prefix (X-Netflix.*)
		{HeaderFingerprint{Name: "X-Netflix", NamePrefix: true}, Header{"X-Netflix.request-context", "r"}, true},
		{HeaderFingerprint{Name: "X-Netflix", NamePrefix: true}, Header{"X-Net", "r"}, false},
		// exact value with specific text
		{HeaderFingerprint{Name: "X-Cache", Value: "Hit from cloudfront"}, Header{"X-Cache", "Hit from cloudfront"}, true},
		{HeaderFingerprint{Name: "X-Cache", Value: "Hit from cloudfront"}, Header{"X-Cache", "Miss"}, false},
	}
	for i, c := range cases {
		if got := c.fp.Matches(c.hd); got != c.match {
			t.Errorf("case %d: Matches(%+v, %+v) = %v, want %v", i, c.fp, c.hd, got, c.match)
		}
	}
}

func TestMatchesHeaders(t *testing.T) {
	google := Get(Google)
	if !google.MatchesHeaders([]Header{{"Content-Type", "text/html"}, {"Server", "gws"}}) {
		t.Error("gws should confirm Google")
	}
	if google.MatchesHeaders([]Header{{"Server", "nginx"}}) {
		t.Error("nginx must not confirm Google")
	}
	if google.MatchesHeaders(nil) {
		t.Error("no headers must not confirm")
	}
}

func TestFingerprintCoverageMatchesPaper(t *testing.T) {
	// Table 4 lists fingerprints for 16 hypergiants; the other 7
	// (Bamtech, CDN77, Cachefly, Chinacache, Disney, Highwinds, Yahoo)
	// have none.
	var with, without int
	for _, h := range All() {
		if len(h.Fingerprints) > 0 {
			with++
		} else {
			without++
		}
	}
	if with != 16 || without != 7 {
		t.Fatalf("fingerprints: %d with, %d without; want 16/7", with, without)
	}
	for _, id := range []ID{Bamtech, CDN77, Cachefly, Chinacache, Disney, Highwinds, Yahoo} {
		if len(Get(id).Fingerprints) > 0 {
			t.Errorf("%v should have no fingerprints", id)
		}
	}
}

func TestFingerprintsAreMutuallyDistinctive(t *testing.T) {
	// A canonical header sample for each hypergiant must match only
	// that hypergiant (the whole point of the curated table). Build one
	// concrete header per HG from its first fingerprint.
	sample := func(h *Hypergiant) Header {
		f := h.Fingerprints[0]
		hd := Header{Name: f.Name, Value: f.Value}
		if f.NamePrefix {
			hd.Name += ".request-id"
		}
		if f.ValuePrefix {
			hd.Value += "-suffix"
		}
		if hd.Value == "" {
			hd.Value = "opaque"
		}
		return hd
	}
	for _, owner := range All() {
		if len(owner.Fingerprints) == 0 {
			continue
		}
		hd := sample(owner)
		for _, other := range All() {
			if len(other.Fingerprints) == 0 {
				continue
			}
			got := other.MatchesHeaders([]Header{hd})
			if other.ID == owner.ID && !got {
				t.Errorf("%v does not match its own sample %+v", owner.ID, hd)
			}
			if other.ID != owner.ID && got {
				t.Errorf("%v's sample %+v also matches %v", owner.ID, hd, other.ID)
			}
		}
	}
}

func TestGetPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Get(None) should panic")
		}
	}()
	Get(None)
}
