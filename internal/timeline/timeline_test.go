package timeline

import (
	"fmt"
	"testing"
)

func TestBounds(t *testing.T) {
	if Count() != 31 {
		t.Fatalf("Count = %d, want 31 (quarterly 2013-10..2021-04)", Count())
	}
	if Snapshot(0).Label() != "2013-10" {
		t.Errorf("first label = %q", Snapshot(0).Label())
	}
	if last := Snapshot(Count() - 1); last.Label() != "2021-04" {
		t.Errorf("last label = %q", last.Label())
	}
}

func TestLabelsQuarterly(t *testing.T) {
	want := []string{"2013-10", "2014-01", "2014-04", "2014-07", "2014-10"}
	for i, w := range want {
		if got := Snapshot(i).Label(); got != w {
			t.Errorf("snapshot %d label = %q, want %q", i, got, w)
		}
	}
}

// TestGridLabelsFormatted: the spelled-out grid labels are what
// formatting each snapshot's month gives, and off-grid snapshots are
// still formatted.
func TestGridLabelsFormatted(t *testing.T) {
	for _, s := range append(All(), -1, Snapshot(Count()), 40) {
		tm := s.Time()
		if want := fmt.Sprintf("%04d-%02d", tm.Year(), int(tm.Month())); s.Label() != want {
			t.Errorf("Snapshot(%d).Label() = %q, want %q", int(s), s.Label(), want)
		}
	}
}

func TestFromLabelRoundTrip(t *testing.T) {
	for _, s := range All() {
		back, ok := FromLabel(s.Label())
		if !ok || back != s {
			t.Fatalf("round trip failed for %v: got %v, %v", s, back, ok)
		}
	}
}

func TestFromLabelRejects(t *testing.T) {
	for _, bad := range []string{
		"", "2013-09", "2013-11", "2012-10", "2021-07", "garbage",
		// Month numbers past 12 once carried into the next year.
		"2013-13", "2020-16", "2012-22",
		// Grid months written other than as Label writes them.
		"2021-4", "2021-04garbage", "2021-04-01", " 2021-04", "+2021-+04",
	} {
		if _, ok := FromLabel(bad); ok {
			t.Errorf("FromLabel(%q) unexpectedly succeeded", bad)
		}
	}
}

func TestTimesOrdered(t *testing.T) {
	for i := 1; i < Count(); i++ {
		if !Snapshot(i - 1).Time().Before(Snapshot(i).Time()) {
			t.Fatalf("snapshot times not increasing at %d", i)
		}
	}
	s := Snapshot(3)
	if !s.Time().Before(s.MidTime()) || s.MidTime().Month() != s.Time().Month() {
		t.Error("MidTime must fall inside the snapshot's month, after Time")
	}
}

func TestValid(t *testing.T) {
	if Snapshot(-1).Valid() || Snapshot(Count()).Valid() {
		t.Error("out-of-range snapshots must be invalid")
	}
	if !Snapshot(0).Valid() || !Snapshot(Count()-1).Valid() {
		t.Error("boundary snapshots must be valid")
	}
}
