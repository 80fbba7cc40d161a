package core

import (
	"context"

	"offnetscope/internal/astopo"
	"offnetscope/internal/corpus"
	"offnetscope/internal/hg"
	"offnetscope/internal/timeline"
)

// SnapshotSource supplies the corpus for each study month; it returns
// nil when the vendor has no data for that month (e.g. Censys before
// 2019-10).
type SnapshotSource func(timeline.Snapshot) *corpus.Snapshot

// StudyResult is the full longitudinal output over the study window.
type StudyResult struct {
	// Results holds one inference result per snapshot, nil where the
	// source had no data.
	Results []*Result

	// The three Netflix series of Fig 3: the straight §4 inference, the
	// variant ignoring certificate expiry, and the variant additionally
	// restoring previously-seen Netflix IPs that moved to plain HTTP
	// between 2017-10 and 2019-10 (§6.2).
	NetflixInitial     []int
	NetflixWithExpired []int
	NetflixNonTLS      []int
}

// RunStudy executes the pipeline over every snapshot the source can
// supply, maintaining the cross-snapshot state the Netflix envelope
// needs. It is the simple sequential front of RunStudyStream, kept for
// in-memory callers (tests, examples, experiments) that need no
// checkpointing, parallelism, or failure policy.
func (p *Pipeline) RunStudy(source SnapshotSource) *StudyResult {
	sr, _ := p.RunStudyStream(context.Background(),
		func(_ context.Context, s timeline.Snapshot) (*corpus.Stream, error) {
			return corpus.StreamOf(source(s), 0), nil
		}, StudyConfig{})
	return sr
}

// ConfirmedSeries extracts one hypergiant's confirmed off-net AS counts
// across the study (zero where no data).
func (sr *StudyResult) ConfirmedSeries(id hg.ID) []int {
	out := make([]int, len(sr.Results))
	for i, r := range sr.Results {
		if r != nil {
			out[i] = len(r.PerHG[id].ConfirmedASes)
		}
	}
	return out
}

// CandidateSeries extracts one hypergiant's certs-only AS counts.
func (sr *StudyResult) CandidateSeries(id hg.ID) []int {
	out := make([]int, len(sr.Results))
	for i, r := range sr.Results {
		if r != nil {
			out[i] = len(r.PerHG[id].CandidateASes)
		}
	}
	return out
}

// MaxConfirmed returns a hypergiant's maximum footprint and the snapshot
// it occurred at (Table 3's middle columns).
func (sr *StudyResult) MaxConfirmed(id hg.ID) (max int, at timeline.Snapshot) {
	series := sr.EnvelopeSeries(id)
	for i, v := range series {
		if v > max {
			max, at = v, timeline.Snapshot(i)
		}
	}
	return max, at
}

// EnvelopeSeries returns the series Table 3 ranks by: the plain
// confirmed counts for every hypergiant except Netflix, whose footprint
// uses the §6.2 envelope (the max of the three variants).
func (sr *StudyResult) EnvelopeSeries(id hg.ID) []int {
	if id != hg.Netflix {
		return sr.ConfirmedSeries(id)
	}
	out := make([]int, len(sr.Results))
	for i := range out {
		out[i] = sr.NetflixInitial[i]
		if sr.NetflixWithExpired[i] > out[i] {
			out[i] = sr.NetflixWithExpired[i]
		}
		if sr.NetflixNonTLS[i] > out[i] {
			out[i] = sr.NetflixNonTLS[i]
		}
	}
	return out
}

// ConfirmedASesAt returns the hypergiant's confirmed off-net AS set at
// snapshot s (nil when no data).
func (sr *StudyResult) ConfirmedASesAt(id hg.ID, s timeline.Snapshot) map[astopo.ASN]struct{} {
	r := sr.Results[s]
	if r == nil {
		return nil
	}
	return r.PerHG[id].ConfirmedASes
}
