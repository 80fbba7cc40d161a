package core

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"offnetscope/internal/corpus"
	"offnetscope/internal/hg"
	"offnetscope/internal/obs"
	"offnetscope/internal/report"
	"offnetscope/internal/scanners"
	"offnetscope/internal/timeline"
)

// The golden suite pins the pipeline's end-to-end output — the exact
// funnel metrics, growth series, per-hypergiant footprints, and report
// tables of a seeded worldsim study — against checked-in JSON. Any
// methodology change that shifts a number shows up as a readable diff
// of the golden file, reviewed like any other code change:
//
//	go test ./internal/core -run TestGolden -update
var updateGolden = flag.Bool("update", false, "rewrite the golden files instead of comparing")

const goldenPath = "testdata/golden/study_rapid7.json"

// goldenStudy is the full frozen output of one seeded Rapid7 study.
type goldenStudy struct {
	// Counters is the run's complete deterministic metric set: every
	// funnel.* counter (timing histograms are excluded by construction —
	// counters only).
	Counters map[string]int64 `json:"counters"`
	// Series are the Fig-3 growth lines, one value per covered snapshot.
	Series map[string][]int `json:"series"`
	// LastSnapshot is each hypergiant's footprint at the final snapshot.
	LastSnapshot map[string]goldenHG `json:"last_snapshot"`
	// Report is the rendered sparkline table over the confirmed series.
	Report []string `json:"report"`
}

type goldenHG struct {
	CandidateASes int `json:"candidate_ases"`
	ConfirmedASes int `json:"confirmed_ases"`
	CandidateIPs  int `json:"candidate_ips"`
	ConfirmedIPs  int `json:"confirmed_ips"`
}

// runGoldenStudy executes the seeded study at the given worker count
// and chunk size and freezes everything the golden file pins.
func runGoldenStudy(t *testing.T, jobs, chunk int) *goldenStudy {
	t.Helper()
	reg := obs.NewRegistry("golden")
	p := testPipeline(DefaultOptions())
	p.Metrics = reg
	profile := scanners.Rapid7Profile()
	sr, err := p.RunStudyStream(context.Background(), func(_ context.Context, s timeline.Snapshot) (*corpus.Stream, error) {
		return corpus.StreamOf(scanners.Scan(testWorld, profile, s), chunk), nil
	}, StudyConfig{Jobs: jobs})
	if err != nil {
		t.Fatal(err)
	}
	return freezeGolden(t, reg, sr)
}

// freezeGolden distills one finished study into the golden observable
// set: full counter map, growth series, last-snapshot footprints, and
// the rendered report.
func freezeGolden(t *testing.T, reg *obs.Registry, sr *StudyResult) *goldenStudy {
	t.Helper()
	g := &goldenStudy{
		Counters:     reg.Snapshot().Counters,
		Series:       map[string][]int{},
		LastSnapshot: map[string]goldenHG{},
	}
	covered := func(series []int) []int {
		var out []int
		for _, s := range timeline.All() {
			if sr.Results[s] != nil {
				out = append(out, series[s])
			}
		}
		return out
	}
	for _, h := range []hg.ID{hg.Google, hg.Facebook, hg.Akamai} {
		g.Series[hg.Get(h).Name] = covered(sr.ConfirmedSeries(h))
	}
	g.Series["Netflix initial"] = covered(sr.NetflixInitial)
	g.Series["Netflix w/ expired"] = covered(sr.NetflixWithExpired)
	g.Series["Netflix non-TLS"] = covered(sr.NetflixNonTLS)
	for name, series := range g.Series {
		g.Report = append(g.Report, report.SparkRow(name, series))
	}
	sort.Strings(g.Report)

	last := sr.Results[lastSnap]
	if last == nil {
		t.Fatal("study has no result at the last snapshot")
	}
	for _, h := range hg.All() {
		hr := last.PerHG[h.ID]
		g.LastSnapshot[h.Name] = goldenHG{
			CandidateASes: len(hr.CandidateASes),
			ConfirmedASes: len(hr.ConfirmedASes),
			CandidateIPs:  hr.CandidateIPs,
			ConfirmedIPs:  hr.ConfirmedIPs,
		}
	}
	return g
}

func marshalGolden(t *testing.T, g *goldenStudy) []byte {
	t.Helper()
	raw, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(raw, '\n')
}

func compareGolden(t *testing.T, got *goldenStudy) {
	t.Helper()
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	var want goldenStudy
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("corrupt golden file %s: %v", goldenPath, err)
	}
	if !reflect.DeepEqual(*got, want) {
		t.Errorf("study diverges from %s (rerun with -update if intentional)\n--- got ---\n%s\n--- want ---\n%s",
			goldenPath, marshalGolden(t, got), raw)
	}
}

// TestGoldenStudyRapid7 runs the seeded study sequentially, each month
// validated as one batch before matching, and compares every frozen
// number against the golden file.
func TestGoldenStudyRapid7(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full seeded study")
	}
	got := runGoldenStudy(t, 1, 1<<30)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, marshalGolden(t, got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", goldenPath)
		return
	}
	compareGolden(t, got)
}

// TestGoldenJobsInvariance reruns the same study on a 4-worker pool:
// the §7 determinism contract says every golden number — including the
// metric counters — must match the sequential run exactly.
func TestGoldenJobsInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full seeded study")
	}
	if *updateGolden {
		t.Skip("golden file is written by the sequential run")
	}
	compareGolden(t, runGoldenStudy(t, 4, 0))
}

// TestGoldenChunkInvariance runs the study at a pathological chunk size
// of one record per batch — every fold boundary exercised — stacked with
// a worker pool, and demands the exact golden bytes the single-batch
// sequential run froze.
func TestGoldenChunkInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full seeded study")
	}
	if *updateGolden {
		t.Skip("golden file is written by the sequential run")
	}
	compareGolden(t, runGoldenStudy(t, 4, 1))
}

// TestGoldenJobsChunkInvariance stacks both execution knobs — a
// 2-worker pool × an odd chunk size that never divides the record count
// evenly — and still demands the exact golden bytes.
func TestGoldenJobsChunkInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full seeded study")
	}
	if *updateGolden {
		t.Skip("golden file is written by the sequential run")
	}
	compareGolden(t, runGoldenStudy(t, 2, 509))
}
