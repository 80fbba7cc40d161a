package scenarios

import (
	"bytes"
	"context"
	"testing"

	"offnetscope/internal/timeline"
)

func TestFullGridShape(t *testing.T) {
	cells := FullGrid(1)
	if len(cells) < 24 {
		t.Fatalf("full grid has %d cells, the matrix promises ≥ 24", len(cells))
	}
	fams := Families(cells)
	if len(fams) < 4 {
		t.Fatalf("full grid covers %d families %v, the matrix promises ≥ 4", len(fams), fams)
	}
	if err := ValidateGrid(cells); err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		if c.Thresholds == (Thresholds{}) {
			t.Errorf("cell %q has no thresholds — an ungated cell can never fail", c.ID)
		}
	}
}

func TestSmokeGridValid(t *testing.T) {
	cells := SmokeGrid(1)
	if len(cells) < 5 {
		t.Fatalf("smoke grid has %d cells, want one per family", len(cells))
	}
	if err := ValidateGrid(cells); err != nil {
		t.Fatal(err)
	}
	// Every smoke cell must be affordable: the CI gate runs on every push.
	for _, c := range cells {
		if c.Config.Scale > smokeScale {
			t.Errorf("smoke cell %q at scale %g > %g — too slow for CI", c.ID, c.Config.Scale, smokeScale)
		}
	}
}

func TestGridByName(t *testing.T) {
	for _, name := range Grids() {
		if _, err := GridByName(name, 1); err != nil {
			t.Errorf("GridByName(%q): %v", name, err)
		}
	}
	if _, err := GridByName("nope", 1); err == nil {
		t.Error("GridByName accepted an unknown grid")
	}
}

func TestCellValidateRejects(t *testing.T) {
	base := SmokeGrid(1)[0]
	bad := []func(*Cell){
		func(c *Cell) { c.ID = "" },
		func(c *Cell) { c.Config.Scale = -1 },
		func(c *Cell) { c.Outages = []timeline.Snapshot{99} },
		func(c *Cell) { c.Damaged = []timeline.Snapshot{-1} },
		func(c *Cell) { c.ScoreSnapshots = []timeline.Snapshot{31} },
		func(c *Cell) { c.Thresholds.MinRecall = 101 },
		func(c *Cell) { c.Outages = timeline.All() },
	}
	for i, mutate := range bad {
		c := base
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("bad[%d]: Validate accepted %+v", i, c)
		}
	}
}

// TestSmokeGridPasses is the CI gate behind `make scenarios-smoke`: the
// reduced grid must run end to end with every cell inside its
// thresholds. Skipped under -short (it runs six full studies).
func TestSmokeGridPasses(t *testing.T) {
	if testing.Short() {
		t.Skip("runs six full studies; skipped under -short")
	}
	m, err := Run(context.Background(), "smoke", SmokeGrid(1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range m.Cells {
		if !c.Pass {
			t.Errorf("cell %s out of thresholds: %v (precision %.1f, recall %.1f, coverage %.1f)",
				c.ID, c.Failures, c.Precision, c.Recall, c.Coverage)
		}
	}
	if !m.Pass {
		t.Errorf("smoke matrix failed: %v", m.Failed)
	}
	// Outage cells must actually lose coverage — otherwise the schedule
	// never reached the runner.
	outage, ok := ByID(SmokeGrid(1), "outage/mid")
	if !ok {
		t.Fatal("smoke grid lost its outage cell")
	}
	for _, c := range m.Cells {
		if c.ID != outage.ID {
			continue
		}
		wantCov := 100 * float64(timeline.Count()-len(outage.Outages)) / float64(timeline.Count())
		if c.Coverage > wantCov+0.1 {
			t.Errorf("outage cell coverage %.1f%%, want ≤ %.1f%% (outages ignored?)", c.Coverage, wantCov)
		}
	}
}

// TestMatrixDeterminism pins the artifact contract: the same grid and
// seed must encode byte-identically at any Workers setting. Two
// cells keep it affordable.
func TestMatrixDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four studies; skipped under -short")
	}
	grid := SmokeGrid(7)[:2]
	seq, err := Run(context.Background(), "det", grid, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Run(context.Background(), "det", grid, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	a, err := seq.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	b, err := par.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Errorf("matrix differs across worker settings:\nsequential: %d bytes\nparallel:   %d bytes", len(a), len(b))
	}
}

func TestMatrixRoundTrip(t *testing.T) {
	m := &Matrix{Grid: "full", Seed: 1, Pass: false, Failed: []string{"hide/null-0.95"},
		Cells: []CellResult{{ID: "hide/null-0.95", Family: "hide", Precision: 81.25,
			Thresholds: Thresholds{MinPrecision: 80}, Failures: []string{"recall 1.0% < 2.0%"}}}}
	data, err := m.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeMatrix(data)
	if err != nil {
		t.Fatal(err)
	}
	data2, err := back.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Error("matrix JSON does not round-trip")
	}
}
