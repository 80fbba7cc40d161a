package astopo

import (
	"strings"
	"testing"
)

func FuzzReadOrgs(f *testing.F) {
	f.Add("1|0|Google Inc.\n1|14|Google LLC\n")
	f.Add("x|y|z")
	f.Add("1|0|Name|with|pipes")
	f.Fuzz(func(t *testing.T, input string) {
		db, err := ReadOrgs(strings.NewReader(input))
		if err != nil {
			return
		}
		var sb strings.Builder
		if err := WriteOrgs(&sb, db); err != nil {
			t.Fatalf("re-serialization failed: %v", err)
		}
	})
}
