package analysis

import (
	"sort"

	"offnetscope/internal/astopo"
	"offnetscope/internal/core"
	"offnetscope/internal/hg"
	"offnetscope/internal/timeline"
)

// This file is the reusable accuracy scorer behind the §5 ground-truth
// validation (val-truth) and the scenario-matrix harness: inferred
// footprints compared against the simulator's ground truth, per
// hypergiant, plus the study's snapshot coverage.

// OffNetTruth is the slice of ground truth the scorer consumes;
// *worldsim.World implements it.
type OffNetTruth interface {
	TrueOffNetASes(hg.ID, timeline.Snapshot) []astopo.ASN
}

// HGScore is one hypergiant's inference accuracy against ground truth.
// Recall and Precision are percentages; by convention an empty side
// scores zero (nothing found of a real footprint, or vice versa).
type HGScore struct {
	HG        hg.ID   `json:"-"`
	Name      string  `json:"hg"`
	Truth     int     `json:"truth"`
	Inferred  int     `json:"inferred"`
	Both      int     `json:"both"`
	Recall    float64 `json:"recall"`
	Precision float64 `json:"precision"`
}

// ScoreSets compares one truth/inferred hosting-AS pair. The HG and
// Name fields are left for the caller to fill.
func ScoreSets(truth []astopo.ASN, inferred map[astopo.ASN]struct{}) HGScore {
	truthSet := make(map[astopo.ASN]struct{}, len(truth))
	for _, as := range truth {
		truthSet[as] = struct{}{}
	}
	both := 0
	for as := range inferred {
		if _, ok := truthSet[as]; ok {
			both++
		}
	}
	sc := HGScore{Truth: len(truthSet), Inferred: len(inferred), Both: both}
	if sc.Truth > 0 {
		sc.Recall = 100 * float64(both) / float64(sc.Truth)
	}
	if sc.Inferred > 0 {
		sc.Precision = 100 * float64(both) / float64(sc.Inferred)
	}
	return sc
}

// ScoreResult is the accuracy of one study against ground truth at one
// snapshot, with the study's snapshot coverage alongside.
type ScoreResult struct {
	Snapshot timeline.Snapshot
	// Rows holds one entry per hypergiant with any footprint (true or
	// inferred), sorted by descending true footprint.
	Rows []HGScore
	// Covered counts study snapshots with data, out of Total; Coverage
	// is the same as a percentage.
	Covered, Total int
	Coverage       float64
}

// MicroAverage aggregates the per-hypergiant rows by pooling their AS
// sets: precision over everything inferred, recall over everything
// true. An empty side scores 100 — no false positives, or nothing to
// find — so degenerate cells gate on the other metric.
func (r *ScoreResult) MicroAverage() (precision, recall float64) {
	var truth, inferred, both int
	for _, row := range r.Rows {
		truth += row.Truth
		inferred += row.Inferred
		both += row.Both
	}
	precision, recall = 100, 100
	if inferred > 0 {
		precision = 100 * float64(both) / float64(inferred)
	}
	if truth > 0 {
		recall = 100 * float64(both) / float64(truth)
	}
	return precision, recall
}

// ScoreStudyAt scores the study's confirmed footprints against truth at
// snapshot s.
func ScoreStudyAt(truth OffNetTruth, sr *core.StudyResult, s timeline.Snapshot) *ScoreResult {
	out := &ScoreResult{Snapshot: s, Total: timeline.Count()}
	for _, snap := range timeline.All() {
		if sr.Results[snap] != nil {
			out.Covered++
		}
	}
	if out.Total > 0 {
		out.Coverage = 100 * float64(out.Covered) / float64(out.Total)
	}
	for _, h := range hg.All() {
		trueASes := truth.TrueOffNetASes(h.ID, s)
		inferred := sr.ConfirmedASesAt(h.ID, s)
		if len(trueASes) == 0 && len(inferred) == 0 {
			continue
		}
		row := ScoreSets(trueASes, inferred)
		row.HG, row.Name = h.ID, h.Name
		out.Rows = append(out.Rows, row)
	}
	sort.Slice(out.Rows, func(i, j int) bool { return out.Rows[i].Truth > out.Rows[j].Truth })
	return out
}

// ScoreStudy scores at the last snapshot the study has data for (the
// final study month under full coverage).
func ScoreStudy(truth OffNetTruth, sr *core.StudyResult) *ScoreResult {
	s := timeline.Snapshot(0)
	for _, snap := range timeline.All() {
		if sr.Results[snap] != nil {
			s = snap
		}
	}
	return ScoreStudyAt(truth, sr, s)
}
