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
	s := timeline.Snapshot(5)
	entry, err := encodeEntry(s, sampleCheckpoint(s))
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(entry)
	const want = "ca389e47d164629d333c927ecc7bbc968736870d684f0562a0a9808b18e90f3c"
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("entry bytes changed: sha256 %s, want %s", got, want)
	}
}
