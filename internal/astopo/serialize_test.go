package astopo

import (
	"bytes"
	"strings"
	"testing"
)

func TestOrgsRoundTrip(t *testing.T) {
	db := NewOrgDB()
	db.Set(1, 0, "Google Inc.")
	db.Set(1, 14, "Google LLC")
	db.Set(2, 3, "Pipe|Corp") // org names may contain the separator? no: SplitN keeps it
	var buf bytes.Buffer
	if err := WriteOrgs(&buf, db); err != nil {
		t.Fatal(err)
	}
	back, err := ReadOrgs(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name(1, 0) != "Google Inc." || back.Name(1, 20) != "Google LLC" {
		t.Fatal("rename history lost")
	}
	if back.Name(2, 5) != "Pipe|Corp" {
		t.Fatalf("org with pipe = %q", back.Name(2, 5))
	}
	if _, err := ReadOrgs(strings.NewReader("x|y")); err == nil {
		t.Error("garbage accepted")
	}
}
