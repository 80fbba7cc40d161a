package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"offnetscope/internal/corpus"
	"offnetscope/internal/timeline"
)

// StreamSource supplies one study month as a chunked record stream.
// Returning (nil, nil) means the vendor has no data for that month
// (e.g. Censys before 2019-10); an error marks the month damaged, and it
// is dropped. Each month is requested once: its inputs are fixed files,
// so a second read would fail the same way. Sources may be called from
// several worker goroutines at once when StudyConfig.Jobs > 1.
type StreamSource func(ctx context.Context, s timeline.Snapshot) (*corpus.Stream, error)

// StudyConfig tunes the longitudinal runner. The zero value is a plain
// sequential run.
type StudyConfig struct {
	// Jobs bounds the worker pool running per-snapshot inference;
	// zero or one means sequential. The output is identical at any
	// setting — only the cross-snapshot envelope fold is order-
	// sensitive, and it always runs sequentially in snapshot order.
	Jobs int

	// Restore, when non-nil, is consulted once per snapshot before any
	// work is scheduled; a non-nil CheckpointData skips both inference
	// and fold for that snapshot, replaying the stored envelope instead.
	Restore func(timeline.Snapshot) *CheckpointData

	// Persist, when non-nil, is called in strict snapshot order after
	// the envelope fold of each freshly computed snapshot. A Persist
	// error aborts the run.
	Persist func(timeline.Snapshot, *CheckpointData) error

	// OnDrop is told about each snapshot whose source or inference
	// failed (reduced coverage), with that error. Called from the fold
	// goroutine, in snapshot order. A non-nil return ends the run there,
	// as a Persist error does: no later snapshot is folded or persisted,
	// and RunStudyStream returns that error.
	OnDrop func(timeline.Snapshot, error) error
}

// outcome is one worker's verdict on a snapshot: inf and err nil means
// the source had no data.
type outcome struct {
	inf *SnapshotInference
	err error
}

// RunStudyStream executes the pipeline over every snapshot the source
// can supply: each month streams through InferSnapshotStream on a
// bounded worker pool, then the sequential envelope pass folds the
// Netflix memory in snapshot order, checkpointing each completed
// snapshot via Persist. On cancellation it folds (and persists)
// whatever already finished in contiguous order, then returns the
// partial result with ctx's error — so a resumed run restarts exactly
// where this one stopped. Output is byte-identical at any jobs ×
// chunk-size combination.
func (p *Pipeline) RunStudyStream(ctx context.Context, source StreamSource, cfg StudyConfig) (*StudyResult, error) {
	n := timeline.Count()
	out := &StudyResult{
		Results:            make([]*Result, n),
		NetflixInitial:     make([]int, n),
		NetflixWithExpired: make([]int, n),
		NetflixNonTLS:      make([]int, n),
	}

	restored := make([]*CheckpointData, n)
	var pending []timeline.Snapshot
	for _, s := range timeline.All() {
		if cfg.Restore != nil {
			restored[s] = cfg.Restore(s)
		}
		if restored[s] == nil {
			pending = append(pending, s)
		}
	}

	// Workers deliver into one single-use buffered slot per snapshot, so
	// no send ever blocks and the fold can consume strictly in order.
	slots := make([]chan outcome, n)
	for _, s := range pending {
		slots[s] = make(chan outcome, 1)
	}

	wctx, cancelWorkers := context.WithCancel(ctx)
	defer cancelWorkers()
	jobs := cfg.Jobs
	if jobs < 1 {
		jobs = 1
	}
	if jobs > len(pending) {
		jobs = len(pending)
	}
	var wg sync.WaitGroup
	if len(pending) > 0 {
		work := make(chan timeline.Snapshot)
		for i := 0; i < jobs; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for s := range work {
					inf, err := p.inferOnce(wctx, source, s)
					// Each slot is buffered and receives at most one send (the
					// dispatcher hands every snapshot out exactly once), so
					// this never blocks; the wctx arm is defensive, keeping a
					// cancelled run's teardown independent of that invariant.
					select {
					case slots[s] <- outcome{inf: inf, err: err}:
					case <-wctx.Done():
					}
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer close(work)
			for _, s := range pending {
				select {
				case work <- s:
				case <-wctx.Done():
					return
				}
			}
		}()
	}

	env := newEnvelopeState()
	var runErr error
fold:
	for _, s := range timeline.All() {
		if ck := restored[s]; ck != nil {
			p.Metrics.Counter("funnel.snapshots_restored").Inc()
			out.Results[s] = ck.Result
			out.setEnvelope(s, ck.Envelope)
			env.replay(ck.MemDelta)
			continue
		}
		var o outcome
		select {
		case o = <-slots[s]:
		case <-ctx.Done():
			// Final flush: a result that is already sitting in the slot
			// still gets folded and persisted, so the next invocation
			// resumes after it rather than redoing it.
			select {
			case o = <-slots[s]:
			default:
				runErr = ctx.Err()
				break fold
			}
		}
		if o.err != nil {
			// A worker error after the run was cancelled is the
			// cancellation propagating, not reduced coverage — the
			// snapshot will simply be recomputed on resume.
			if ctx.Err() != nil {
				runErr = ctx.Err()
				break fold
			}
			p.Metrics.Counter("funnel.snapshots_dropped").Inc()
			if cfg.OnDrop != nil {
				if runErr = cfg.OnDrop(s, o.err); runErr != nil {
					break fold
				}
			}
			continue
		}
		if o.inf == nil {
			p.Metrics.Counter("funnel.snapshots_empty").Inc()
			continue // month not covered by this vendor
		}
		p.Metrics.Counter("funnel.snapshots_folded").Inc()
		vals, delta := env.fold(o.inf)
		out.Results[s] = o.inf.Result
		out.setEnvelope(s, vals)
		if cfg.Persist != nil {
			if err := cfg.Persist(s, &CheckpointData{Result: o.inf.Result, Envelope: vals, MemDelta: delta}); err != nil {
				runErr = fmt.Errorf("core: checkpointing %s: %w", s.Label(), err)
				break fold
			}
		}
	}
	cancelWorkers()
	wg.Wait()
	return out, runErr
}

func (sr *StudyResult) setEnvelope(s timeline.Snapshot, v EnvelopeValues) {
	sr.NetflixInitial[s] = v.Initial
	sr.NetflixWithExpired[s] = v.WithExpired
	sr.NetflixNonTLS[s] = v.NonTLS
}

// inferOnce runs one snapshot's read + inference; the returned error
// means the snapshot is dropped, and (nil, nil) that the source has no
// data for it.
func (p *Pipeline) inferOnce(ctx context.Context, source StreamSource, s timeline.Snapshot) (*SnapshotInference, error) {
	start := time.Now()
	st, err := source(ctx, s)
	if err != nil {
		return nil, err
	}
	var inf *SnapshotInference
	if st != nil {
		if inf, err = p.InferSnapshotStream(st); err != nil {
			return nil, err
		}
	}
	// Snapshot wall time covers the read plus the inference — the
	// per-unit-of-work latency a -jobs setting amortizes.
	p.Metrics.Histogram("funnel.snapshot_ns").Since(start)
	return inf, nil
}
