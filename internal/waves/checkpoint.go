package waves

import (
	"encoding/json"
	"fmt"
	"hash/fnv"

	"offnetscope/internal/runstate"
)

// Mid-wave checkpoints ride on runstate's crash-safe blob store: each
// probed batch adds one JSON blob, named by snapshot label and batch
// number, so a write stays the size of a batch. A blob holds
// observations, never verdicts or times: a resumed wave validates them
// when it infers. Each blob pins the snapshot slot and a hash of the
// target list, so a blob from another wave or target list is ignored,
// and a stale one (a crash after commit but before the clear) no
// longer matches the advanced slot.

// ckFile is one batch blob's payload.
type ckFile struct {
	Snapshot     int           `json:"snapshot"`
	TargetsHash  uint64        `json:"targets_hash"`
	Observations []Observation `json:"observations"`
}

// ckName names the wave's n-th batch blob.
func (r *Runner) ckName(n int) string { return fmt.Sprintf("wave-%s-%d", r.next.Label(), n) }

// hashTargets fingerprints a target list (addresses, ASes, order).
func hashTargets(targets []Target) uint64 {
	h := fnv.New64a()
	for _, t := range targets {
		fmt.Fprintf(h, "%s\x00%d\n", t.Addr, uint32(t.AS))
	}
	return h.Sum64()
}

// loadCheckpoint restores the current wave's observations by address
// from its batch blobs, read in order up to the first missing or
// foreign one, and returns how many it read.
func (r *Runner) loadCheckpoint() (map[string]Observation, int) {
	seen := make(map[string]Observation)
	if r.cfg.CheckpointDir == "" {
		return seen, 0
	}
	for n := 0; ; n++ {
		var ck ckFile // a missing blob is nil, which fails to unmarshal
		if err := json.Unmarshal(runstate.LoadBlob(r.cfg.CheckpointDir, r.ckName(n)), &ck); err != nil ||
			ck.Snapshot != int(r.next) || ck.TargetsHash != r.targetsHash {
			return seen, n
		}
		for _, o := range ck.Observations {
			seen[o.Addr] = o
		}
	}
}

// saveCheckpoint persists batch as the wave's n-th blob.
func (r *Runner) saveCheckpoint(n int, batch []Observation) error {
	if r.cfg.CheckpointDir == "" {
		return nil
	}
	raw, err := json.Marshal(ckFile{Snapshot: int(r.next), TargetsHash: r.targetsHash, Observations: batch})
	if err != nil {
		return fmt.Errorf("waves: %w", err)
	}
	if err := runstate.SaveBlob(r.cfg.CheckpointDir, r.ckName(n), raw); err != nil {
		return fmt.Errorf("waves: checkpointing wave %s: %w", r.next.Label(), err)
	}
	r.cfg.Metrics.Counter("waves.checkpoints").Inc()
	return nil
}

// clearCheckpoint drops the wave's first n blobs; best-effort — a stale
// blob is ignored on the next load anyway.
func (r *Runner) clearCheckpoint(n int) {
	if r.cfg.CheckpointDir == "" {
		return
	}
	for i := range n {
		_ = runstate.RemoveBlob(r.cfg.CheckpointDir, r.ckName(i))
	}
}
