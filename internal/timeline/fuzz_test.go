package timeline

import "testing"

func FuzzFromLabel(f *testing.F) {
	for _, seed := range []string{"2013-10", "2021-04", "2016-07", "1999-01", "x", "2014-1", "2014-02", "2013-13", "2021-04x", " 2021-04"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		snap, ok := FromLabel(s)
		if !ok {
			return
		}
		if !snap.Valid() {
			t.Fatalf("FromLabel(%q) returned invalid snapshot %d", s, snap)
		}
		if snap.Label() != s {
			t.Fatalf("FromLabel(%q) accepted a label Label never returns (%q)", s, snap.Label())
		}
	})
}
