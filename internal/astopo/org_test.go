package astopo

import (
	"reflect"
	"testing"

	"offnetscope/internal/timeline"
)

func TestOrgDBNameHistory(t *testing.T) {
	db := NewOrgDB()
	as := ASN(15169)
	db.Set(as, 0, "Google Inc.")
	db.Set(as, 14, "Google LLC") // 2017-04 rename

	if got := db.Name(as, 0); got != "Google Inc." {
		t.Errorf("name at 0 = %q", got)
	}
	if got := db.Name(as, 13); got != "Google Inc." {
		t.Errorf("name at 13 = %q", got)
	}
	if got := db.Name(as, 14); got != "Google LLC" {
		t.Errorf("name at 14 = %q", got)
	}
	if got := db.Name(as, 30); got != "Google LLC" {
		t.Errorf("name at 30 = %q", got)
	}
	if got := db.Name(ASN(1), 10); got != "" {
		t.Errorf("unknown AS name = %q", got)
	}
}

func TestOrgDBSetOutOfOrderAndOverride(t *testing.T) {
	db := NewOrgDB()
	as := ASN(7)
	db.Set(as, 10, "B Corp")
	db.Set(as, 0, "A Corp")
	if got := db.Name(as, 5); got != "A Corp" {
		t.Errorf("name at 5 = %q", got)
	}
	db.Set(as, 10, "B2 Corp") // same-snapshot override
	if got := db.Name(as, 12); got != "B2 Corp" {
		t.Errorf("name at 12 = %q", got)
	}
}

func TestOrgDBASesMatching(t *testing.T) {
	db := NewOrgDB()
	db.Set(ASN(1), 0, "Google Inc.")
	db.Set(ASN(2), 0, "Google Fiber")
	db.Set(ASN(3), 0, "Netflix, Inc.")
	db.Set(ASN(4), 5, "Google Cloud") // appears later

	got := db.ASesMatching([]string{"google", "GOOGLE", "amazon", "inc."}, 0)
	if len(got) != 4 {
		t.Fatalf("ASesMatching returned %d lists for 4 keywords", len(got))
	}
	for i, want := range [][]ASN{{1, 2}, {1, 2}, nil, {1, 3}} {
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("ASesMatching at 0, keyword %d = %v, want %v", i, got[i], want)
		}
	}
	got = db.ASesMatching([]string{"GOOGLE", "amazon"}, timeline.Snapshot(10))
	if want := []ASN{1, 2, 4}; !reflect.DeepEqual(got[0], want) {
		t.Errorf("ASesMatching at 10 = %v, want %v", got[0], want)
	}
	if n := len(got[1]); n != 0 {
		t.Errorf("amazon matches = %d", n)
	}
	if db.NumASes() != 4 {
		t.Errorf("NumASes = %d", db.NumASes())
	}
}
