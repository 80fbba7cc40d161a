package runstate

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"offnetscope/internal/timeline"
)

// TestFormatPins pins the on-disk bytes of the checkpoint-entry
// format: sampleCheckpoint encoded as snapshot 5 must hash to the
// digest recorded when the format was frozen. A change here is a
// format change and needs a version bump, not a new digest.
func TestFormatPins(t *testing.T) {
	entry, err := encodeEntry(timeline.Snapshot(5), sampleCheckpoint())
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(entry)
	const want = "82620ed3b222df709cf798600962772dc60594e62bcca06df88d4fa35deff569"
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("entry bytes changed: sha256 %s, want %s", got, want)
	}
}
