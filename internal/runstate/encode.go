package runstate

import (
	"encoding/json"
	"fmt"

	"offnetscope/internal/core"
	"offnetscope/internal/durable"
	"offnetscope/internal/timeline"
)

// Entry wire format, a durable frame:
//
//	magic "offnetCK" | uvarint version | JSON payload | CRC-32 (IEEE, LE)
//
// The CRC covers every preceding byte, so truncation, bit flips, and
// half-written files all fail closed. The payload is encoding/json's
// form of *core.CheckpointData itself, so a field core adds to Result
// is checkpointed with no change here. JSON writes map keys sorted, so
// encoding is deterministic. Checkpoints are transient per-run scratch
// (rewritten from scratch on any input change), so debuggability beats
// density: `tail -c +10 F | head -c -4` prints an entry's JSON. An
// entry of another version is discarded on load like any unreadable
// one, and its snapshot recomputed.

const (
	entryMagic   = "offnetCK"
	entryVersion = 2
	entrySuffix  = ".ckpt"
)

func encodeEntry(s timeline.Snapshot, ck *core.CheckpointData) ([]byte, error) {
	if ck == nil || ck.Result == nil {
		return nil, fmt.Errorf("runstate: refusing to checkpoint empty snapshot %s", s.Label())
	}
	if ck.Result.Snapshot != s {
		return nil, fmt.Errorf("runstate: refusing to checkpoint the result for %s as %s", ck.Result.Snapshot.Label(), s.Label())
	}
	payload, err := json.Marshal(ck)
	if err != nil {
		return nil, fmt.Errorf("runstate: %w", err)
	}
	return durable.Seal(append(durable.Start(entryMagic, entryVersion), payload...)), nil
}

func decodeEntry(s timeline.Snapshot, raw []byte) (*core.CheckpointData, error) {
	payload, err := durable.Open(raw, entryMagic, entryVersion)
	if err != nil {
		return nil, fmt.Errorf("runstate: %w", err)
	}
	ck := new(core.CheckpointData)
	if err := json.Unmarshal(payload, ck); err != nil {
		return nil, fmt.Errorf("runstate: %w", err)
	}
	if ck.Result == nil || ck.Result.Snapshot != s {
		return nil, fmt.Errorf("runstate: entry holds no result for snapshot %s", s.Label())
	}
	return ck, nil
}
