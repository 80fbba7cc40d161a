package scenarios

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"

	"offnetscope/internal/analysis"
	"offnetscope/internal/core"
	"offnetscope/internal/corpus"
	"offnetscope/internal/resilience"
	"offnetscope/internal/scanners"
	"offnetscope/internal/timeline"
	"offnetscope/internal/worldsim"
)

// Options tunes matrix execution. All three knobs are pure execution
// levers: the matrix is byte-identical at any setting.
type Options struct {
	// Workers bounds how many cells run concurrently; zero or one means
	// sequential.
	Workers int
	// Jobs is forwarded to core.StudyConfig.Jobs inside each cell
	// (per-snapshot inference workers).
	Jobs int
	// Shards is forwarded to core.Pipeline.Shards inside each cell
	// (intra-snapshot record sharding).
	Shards int
	// Progress, when non-nil, is called as each cell finishes (from the
	// collecting goroutine, serialized).
	Progress func(CellResult)
}

// SnapshotScore is the scored accuracy of one cell at one snapshot.
type SnapshotScore struct {
	Snapshot  string             `json:"snapshot"`
	Precision float64            `json:"precision"`
	Recall    float64            `json:"recall"`
	Rows      []analysis.HGScore `json:"per_hg,omitempty"`
}

// CellResult is one scenario cell's outcome: the micro-averaged
// accuracy over every scored snapshot, the per-snapshot breakdowns,
// and the threshold verdict.
type CellResult struct {
	ID     string `json:"id"`
	Family string `json:"family"`
	Label  string `json:"label"`

	// Precision/Recall are the micro-averages pooled over every scored
	// snapshot; Coverage is the share of study months with data.
	Precision float64 `json:"precision"`
	Recall    float64 `json:"recall"`
	Coverage  float64 `json:"coverage"`

	// Scores carries the per-snapshot detail (the last covered snapshot
	// first, then any extra ScoreSnapshots in order).
	Scores []SnapshotScore `json:"scores"`

	Thresholds Thresholds `json:"thresholds"`
	Pass       bool       `json:"pass"`
	// Failures names every violated threshold, empty when Pass.
	Failures []string `json:"failures,omitempty"`
}

// round3 pins floats to three decimals so the committed artifact never
// wobbles in the last ulp.
func round3(v float64) float64 { return math.Round(v*1000) / 1000 }

// snapshotSet builds a membership set from a snapshot list.
func snapshotSet(ss []timeline.Snapshot) map[timeline.Snapshot]bool {
	if len(ss) == 0 {
		return nil
	}
	out := make(map[timeline.Snapshot]bool, len(ss))
	for _, s := range ss {
		out[s] = true
	}
	return out
}

// RunCell executes one scenario end to end: build the cell's world,
// run the full longitudinal inference over the simulated Rapid7
// corpus (honoring the cell's outage and damage schedule through the
// runner's no-data and retry/drop paths), score against ground truth,
// and apply the thresholds.
func RunCell(ctx context.Context, c Cell, opts Options) (CellResult, error) {
	if err := c.Validate(); err != nil {
		return CellResult{}, err
	}
	w, err := worldsim.New(c.Config)
	if err != nil {
		return CellResult{}, fmt.Errorf("scenarios: cell %q: %w", c.ID, err)
	}
	p := &core.Pipeline{
		Trust:  w.TrustStore(),
		Orgs:   w.Orgs(),
		Mapper: func(s timeline.Snapshot) core.IPMapper { return w.IP2AS(s) },
		Opts:   core.DefaultOptions(),
		Shards: opts.Shards,
	}
	profile := scanners.Rapid7Profile()
	outages := snapshotSet(c.Outages)
	damaged := snapshotSet(c.Damaged)
	source := func(_ context.Context, s timeline.Snapshot) (*corpus.Stream, error) {
		if outages[s] {
			return nil, nil // vendor has no data this month
		}
		if damaged[s] {
			return nil, resilience.Permanent(fmt.Errorf("scenarios: %s: simulated unreadable vendor month", s.Label()))
		}
		return corpus.StreamOf(scanners.Scan(w, profile, s), 0), nil
	}
	sr, err := p.RunStudyStream(ctx, source, core.StudyConfig{Jobs: opts.Jobs})
	if err != nil {
		return CellResult{}, fmt.Errorf("scenarios: cell %q: %w", c.ID, err)
	}

	primary := analysis.ScoreStudy(w, sr)
	scored := []*analysis.ScoreResult{primary}
	for _, s := range c.ScoreSnapshots {
		if s == primary.Snapshot {
			continue
		}
		scored = append(scored, analysis.ScoreStudyAt(w, sr, s))
	}

	out := CellResult{
		ID:         c.ID,
		Family:     c.Family,
		Label:      c.Label,
		Coverage:   round3(primary.Coverage),
		Thresholds: c.Thresholds,
	}
	// Pool the micro-average across every scored snapshot so a flash
	// cell is judged at its peak and at the end of the study together.
	var truth, inferred, both int
	for _, sc := range scored {
		prec, rec := sc.MicroAverage()
		out.Scores = append(out.Scores, SnapshotScore{
			Snapshot:  sc.Snapshot.Label(),
			Precision: round3(prec),
			Recall:    round3(rec),
			Rows:      sc.Rows,
		})
		for _, row := range sc.Rows {
			truth += row.Truth
			inferred += row.Inferred
			both += row.Both
		}
	}
	out.Precision, out.Recall = 100, 100
	if inferred > 0 {
		out.Precision = round3(100 * float64(both) / float64(inferred))
	}
	if truth > 0 {
		out.Recall = round3(100 * float64(both) / float64(truth))
	}

	if out.Precision < c.Thresholds.MinPrecision {
		out.Failures = append(out.Failures,
			fmt.Sprintf("precision %.1f%% < %.1f%%", out.Precision, c.Thresholds.MinPrecision))
	}
	if out.Recall < c.Thresholds.MinRecall {
		out.Failures = append(out.Failures,
			fmt.Sprintf("recall %.1f%% < %.1f%%", out.Recall, c.Thresholds.MinRecall))
	}
	if out.Coverage < c.Thresholds.MinCoverage {
		out.Failures = append(out.Failures,
			fmt.Sprintf("coverage %.1f%% < %.1f%%", out.Coverage, c.Thresholds.MinCoverage))
	}
	if max := c.Thresholds.MaxSpurious; max > 0 && inferred-both > max {
		out.Failures = append(out.Failures,
			fmt.Sprintf("spurious ASes %d > %d", inferred-both, max))
	}
	out.Pass = len(out.Failures) == 0
	return out, nil
}

// Run executes every cell of a grid on a bounded pool of Workers and
// assembles the Matrix. Results land in grid order regardless of
// worker count, so the encoded matrix is byte-identical at any
// Workers/Jobs/Shards setting.
func Run(ctx context.Context, grid string, cells []Cell, opts Options) (*Matrix, error) {
	if len(cells) == 0 {
		return nil, fmt.Errorf("scenarios: empty grid")
	}
	if err := ValidateGrid(cells); err != nil {
		return nil, err
	}
	results := make([]CellResult, len(cells))
	errs := make([]error, len(cells))

	workers := opts.Workers
	if workers < 1 {
		workers = 1
	}
	if workers > len(cells) {
		workers = len(cells)
	}
	work := make(chan int)
	done := make(chan int)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range work {
				results[idx], errs[idx] = RunCell(ctx, cells[idx], opts)
				select {
				case done <- idx:
				case <-ctx.Done():
					return
				}
			}
		}()
	}
	go func() {
		defer close(work)
		for i := range cells {
			select {
			case work <- i:
			case <-ctx.Done():
				return
			}
		}
	}()
	go func() {
		wg.Wait()
		close(done)
	}()
	finished := 0
	for idx := range done {
		finished++
		if opts.Progress != nil && errs[idx] == nil {
			opts.Progress(results[idx])
		}
	}
	if err := ctx.Err(); err != nil && finished < len(cells) {
		return nil, err
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("scenarios: cell %q failed: %w", cells[i].ID, err)
		}
	}

	m := &Matrix{
		Grid:  grid,
		Seed:  cells[0].Config.Seed,
		Cells: results,
		Pass:  true,
	}
	for _, r := range results {
		if !r.Pass {
			m.Pass = false
			m.Failed = append(m.Failed, r.ID)
		}
	}
	sort.Strings(m.Failed)
	return m, nil
}
