package runstate

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"testing"

	"offnetscope/internal/timeline"
)

// TestFormatPins pins the on-disk bytes of the checkpoint-entry and
// blob formats: each encodes a fixed small input (the entry is
// sampleCheckpoint) and must hash to the digest recorded when the
// format was frozen. A change here is a format change and needs a
// version bump, not a new digest.
func TestFormatPins(t *testing.T) {
	entry, err := encodeEntry(timeline.Snapshot(5), sampleCheckpoint())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := SaveBlob(dir, "wave-2021-04", []byte(`{"wave":"2021-04","done":3}`)); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(blobPath(dir, "wave-2021-04"))
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"entry", entry, "82620ed3b222df709cf798600962772dc60594e62bcca06df88d4fa35deff569"},
		{"blob", blob, "193a7653a3d440f23ce3e89bd61d72354d33395f89d94438fec098e60b26b36e"},
	}
	for _, tc := range cases {
		sum := sha256.Sum256(tc.data)
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("%s bytes changed: sha256 %s, want %s", tc.name, got, tc.want)
		}
	}
}
