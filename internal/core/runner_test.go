package core

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"offnetscope/internal/corpus"
	"offnetscope/internal/scanners"
	"offnetscope/internal/timeline"
)

// studyTail pre-scans the last n snapshots once so the runner tests can
// share a cheap, deterministic source.
func studyTail(t testing.TB, n int) map[timeline.Snapshot]*corpus.Snapshot {
	t.Helper()
	snaps := make(map[timeline.Snapshot]*corpus.Snapshot, n)
	all := timeline.All()
	for _, s := range all[len(all)-n:] {
		snaps[s] = scanners.Scan(testWorld, scanners.Rapid7Profile(), s)
	}
	return snaps
}

func mapSource(snaps map[timeline.Snapshot]*corpus.Snapshot) StreamSource {
	return func(_ context.Context, s timeline.Snapshot) (*corpus.Stream, error) {
		return corpus.StreamOf(snaps[s], 0), nil
	}
}

func sameStudy(t *testing.T, want, got *StudyResult) {
	t.Helper()
	if !reflect.DeepEqual(want.NetflixInitial, got.NetflixInitial) ||
		!reflect.DeepEqual(want.NetflixWithExpired, got.NetflixWithExpired) ||
		!reflect.DeepEqual(want.NetflixNonTLS, got.NetflixNonTLS) {
		t.Fatalf("Netflix envelope series diverge")
	}
	for i := range want.Results {
		a, b := want.Results[i], got.Results[i]
		if (a == nil) != (b == nil) {
			t.Fatalf("snapshot %d: presence differs (%v vs %v)", i, a != nil, b != nil)
		}
		if a == nil {
			continue
		}
		for id, ha := range a.PerHG {
			if !reflect.DeepEqual(ha.ConfirmedASes, b.PerHG[id].ConfirmedASes) {
				t.Fatalf("snapshot %d: %v confirmed sets differ", i, id)
			}
		}
	}
}

func TestRunStudyConfigParallelMatchesSequential(t *testing.T) {
	snaps := studyTail(t, 4)
	p := testPipeline(DefaultOptions())

	seq, err := p.RunStudyStream(context.Background(), mapSource(snaps), StudyConfig{Jobs: 1})
	if err != nil {
		t.Fatalf("sequential run: %v", err)
	}
	par, err := p.RunStudyStream(context.Background(), mapSource(snaps), StudyConfig{Jobs: 4})
	if err != nil {
		t.Fatalf("parallel run: %v", err)
	}
	sameStudy(t, seq, par)

	// And the zero-config front door agrees with both.
	plain := p.RunStudy(func(s timeline.Snapshot) *corpus.Snapshot { return snaps[s] })
	sameStudy(t, seq, plain)
}

func TestRunStudyConfigRestoreSkipsRecompute(t *testing.T) {
	snaps := studyTail(t, 3)
	p := testPipeline(DefaultOptions())

	saved := make(map[timeline.Snapshot]*CheckpointData)
	var persistOrder []timeline.Snapshot
	full, err := p.RunStudyStream(context.Background(), mapSource(snaps), StudyConfig{
		Persist: func(s timeline.Snapshot, ck *CheckpointData) error {
			saved[s] = ck
			persistOrder = append(persistOrder, s)
			return nil
		},
	})
	if err != nil {
		t.Fatalf("checkpointing run: %v", err)
	}
	if len(saved) != len(snaps) {
		t.Fatalf("persisted %d checkpoints, want %d", len(saved), len(snaps))
	}
	for i := 1; i < len(persistOrder); i++ {
		if persistOrder[i] <= persistOrder[i-1] {
			t.Fatalf("persist order not strictly increasing: %v", persistOrder)
		}
	}

	// Resume with every checkpoint present: the source must never run.
	resumed, err := p.RunStudyStream(context.Background(),
		func(_ context.Context, s timeline.Snapshot) (*corpus.Stream, error) {
			if snaps[s] != nil {
				t.Errorf("source consulted for checkpointed snapshot %v", s)
			}
			return nil, nil
		},
		StudyConfig{Restore: func(s timeline.Snapshot) *CheckpointData { return saved[s] }})
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	sameStudy(t, full, resumed)

	// Resume with a hole: only the missing snapshot is recomputed, and
	// the envelope still matches because the restored memory deltas
	// replay in order.
	hole := persistOrder[len(persistOrder)-1]
	var recomputed []timeline.Snapshot
	partial, err := p.RunStudyStream(context.Background(),
		func(_ context.Context, s timeline.Snapshot) (*corpus.Stream, error) {
			if snaps[s] != nil {
				recomputed = append(recomputed, s)
			}
			return corpus.StreamOf(snaps[s], 0), nil
		},
		StudyConfig{Restore: func(s timeline.Snapshot) *CheckpointData {
			if s == hole {
				return nil
			}
			return saved[s]
		}})
	if err != nil {
		t.Fatalf("partial resume: %v", err)
	}
	if len(recomputed) != 1 || recomputed[0] != hole {
		t.Fatalf("recomputed %v, want just %v", recomputed, hole)
	}
	sameStudy(t, full, partial)
}

func TestRunStudyConfigDropsFailedSnapshot(t *testing.T) {
	snaps := studyTail(t, 3)
	p := testPipeline(DefaultOptions())
	var bad timeline.Snapshot
	for s := range snaps {
		if bad == 0 || s < bad {
			bad = s
		}
	}

	diskGone := errors.New("disk gone")
	var dropped []timeline.Snapshot
	calls := 0
	sr, err := p.RunStudyStream(context.Background(),
		func(_ context.Context, s timeline.Snapshot) (*corpus.Stream, error) {
			if s == bad {
				calls++
				return nil, diskGone
			}
			return corpus.StreamOf(snaps[s], 0), nil
		},
		StudyConfig{
			OnDrop: func(s timeline.Snapshot, err error) {
				if err != diskGone {
					t.Errorf("OnDrop(%v) got %v, want the source's error as returned", s, err)
				}
				dropped = append(dropped, s)
			},
		})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(dropped) != 1 || dropped[0] != bad {
		t.Fatalf("dropped %v, want just %v", dropped, bad)
	}
	if calls != 1 {
		t.Fatalf("source asked for the damaged month %d times, want once", calls)
	}
	if sr.Results[bad] != nil {
		t.Fatalf("dropped snapshot still has a result")
	}
	for s := range snaps {
		if s != bad && sr.Results[s] == nil {
			t.Errorf("healthy snapshot %v lost", s)
		}
	}
}

// TestRunStudyConfigCancelMidRun cancels while workers are in flight:
// the fold is blocked on the earliest snapshot (whose source wedges
// until cancellation) while later snapshots have already delivered into
// their slots. The run must unwind — workers sending after the fold has
// exited must not block past cancelWorkers() — and report the
// cancellation. Exercised under -race by make ci's chaos-race target.
func TestRunStudyConfigCancelMidRun(t *testing.T) {
	snaps := studyTail(t, 3)
	p := testPipeline(DefaultOptions())
	var wedged timeline.Snapshot
	for s := range snaps {
		if wedged == 0 || s < wedged {
			wedged = s
		}
	}

	fastDone := make(chan struct{}, len(snaps))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := p.RunStudyStream(ctx,
			func(sctx context.Context, s timeline.Snapshot) (*corpus.Stream, error) {
				if s == wedged {
					<-sctx.Done()
					return nil, sctx.Err()
				}
				if snaps[s] != nil {
					defer func() { fastDone <- struct{}{} }()
				}
				return corpus.StreamOf(snaps[s], 0), nil
			},
			StudyConfig{Jobs: len(snaps)})
		done <- err
	}()

	// Wait until both unwedged snapshots have been handed to workers, so
	// the cancellation lands with outcomes already parked in slots and
	// the fold still blocked on the wedged snapshot.
	for i := 0; i < len(snaps)-1; i++ {
		select {
		case <-fastDone:
		case <-time.After(30 * time.Second):
			t.Fatal("fast snapshots never ran")
		}
	}
	cancel()

	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("mid-run cancel returned %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run did not unwind after mid-run cancellation")
	}
}

func TestRunStudyConfigCancellation(t *testing.T) {
	snaps := studyTail(t, 2)
	p := testPipeline(DefaultOptions())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	_, err := p.RunStudyStream(ctx, mapSource(snaps), StudyConfig{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v, want context.Canceled", err)
	}
}
