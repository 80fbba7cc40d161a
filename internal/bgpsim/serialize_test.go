package bgpsim

import (
	"bytes"
	"strings"
	"testing"

	"offnetscope/internal/astopo"
)

func TestRIBRoundTrip(t *testing.T) {
	g := astopo.Generate(astopo.GenConfig{Seed: 5, FinalASes: 300})
	alloc, _ := NewAllocatorFunc(g, 5, nil)
	rib := BuildRIB(g, alloc, RouteViews, 12, DefaultNoise(), 9)

	var buf bytes.Buffer
	if err := WriteRIB(&buf, rib); err != nil {
		t.Fatal(err)
	}
	back, err := ReadRIB(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Collector != RouteViews || back.Snapshot != 12 {
		t.Fatalf("header lost: %s %v", back.Collector, back.Snapshot)
	}
	if len(back.Announcements) != len(rib.Announcements) {
		t.Fatalf("announcement counts differ: %d vs %d", len(back.Announcements), len(rib.Announcements))
	}
	for i := range rib.Announcements {
		a, b := rib.Announcements[i], back.Announcements[i]
		if a.Prefix != b.Prefix || a.Origin != b.Origin {
			t.Fatalf("announcement %d differs", i)
		}
		if diff := a.Presence - b.Presence; diff > 0.001 || diff < -0.001 {
			t.Fatalf("presence %d drifted: %v vs %v", i, a.Presence, b.Presence)
		}
	}
	// The parsed RIB feeds the pipeline identically.
	m1 := BuildIP2AS(12, rib)
	m2 := BuildIP2AS(12, back)
	if m1.Len() != m2.Len() {
		t.Fatalf("IP2AS sizes differ: %d vs %d", m1.Len(), m2.Len())
	}
}

func TestReadRIBRejectsGarbage(t *testing.T) {
	bad := []string{
		"1.2.3.0/24|0|0.5", // origin must be positive
		"1.2.3.0/24|x|0.5", // bad origin
		"1.2.3.0/24|5|1.5", // presence out of range
		"1.2.3.0/24|5",     // arity
		"nonsense",
		"500.2.3.0/24|5|0.5", // bad prefix
	}
	for _, in := range bad {
		if _, err := ReadRIB(strings.NewReader(in)); err == nil {
			t.Errorf("input %q parsed without error", in)
		}
	}
}
