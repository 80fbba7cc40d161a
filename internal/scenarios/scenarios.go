// Package scenarios turns the world simulator into a fuzzer for the
// paper's methodology. It sweeps a grid of adversarial worldsim
// configurations — IPv6-only eyeball networks, §8 hide-and-seek evasion
// combinations, aggressive customer-certificate reuse, flash hypergiant
// expansion/retreat, vendor outages mid-study, and world-scale sweeps —
// runs the full §4 cert-match → §5 header-confirm inference on every
// cell, and scores each against the simulator's ground truth with
// per-cell pass thresholds. A methodology change that silently degrades
// precision, recall, or coverage on an adversarial world fails the
// matrix instead of shipping.
package scenarios

import (
	"fmt"
	"math"

	"offnetscope/internal/hg"
	"offnetscope/internal/timeline"
	"offnetscope/internal/worldsim"
)

// Thresholds are one cell's pass gates, applied to the micro-averaged
// score over every scored snapshot (percentages). Evasion cells gate
// mostly on precision — finding nothing is acceptable, inventing
// footprints is not.
type Thresholds struct {
	MinPrecision float64 `json:"min_precision"`
	MinRecall    float64 `json:"min_recall"`
	MinCoverage  float64 `json:"min_coverage"`
	// MaxSpurious bounds the absolute number of invented hosting ASes
	// (pooled inferred − correct); zero disables the gate. It replaces
	// the precision gate on total-evasion cells, where one spurious AS
	// out of one inferred reads as 0% precision without meaning it.
	MaxSpurious int `json:"max_spurious,omitempty"`
}

// Cell is one scenario in the matrix: a world configuration, the
// vendor-availability schedule, where to score, and what to demand.
type Cell struct {
	// ID is the stable "family/name" identifier cells are addressed by.
	ID string `json:"id"`
	// Family groups related cells (scale, v6, hide, certreuse, flash,
	// outage).
	Family string `json:"family"`
	// Label is the human description rendered into the matrix table.
	Label string `json:"label"`
	// Config is the world under test.
	Config worldsim.Config `json:"config"`
	// Outages lists study months the simulated vendor has no data for;
	// they flow through the runner's no-data path and reduce coverage.
	Outages []timeline.Snapshot `json:"outages,omitempty"`
	// Damaged lists study months whose reads fail; the runner drops
	// them (reduced coverage), the same way offnetmap's tolerant reads
	// drop a corrupt vendor-month.
	Damaged []timeline.Snapshot `json:"damaged,omitempty"`
	// ScoreSnapshots are extra snapshots to score besides the last
	// covered one — flash cells score at the flash peak.
	ScoreSnapshots []timeline.Snapshot `json:"score_snapshots,omitempty"`
	// Thresholds are the cell's pass gates.
	Thresholds Thresholds `json:"thresholds"`
}

// Validate rejects cells that cannot mean anything: invalid world
// configurations, out-of-window snapshots, or nonsense thresholds.
func (c Cell) Validate() error {
	if c.ID == "" || c.Family == "" {
		return fmt.Errorf("scenarios: cell %q needs an id and a family", c.ID)
	}
	if err := c.Config.Validate(); err != nil {
		return fmt.Errorf("scenarios: cell %q: %w", c.ID, err)
	}
	for _, s := range c.Outages {
		if !s.Valid() {
			return fmt.Errorf("scenarios: cell %q: outage snapshot %d outside the study window", c.ID, int(s))
		}
	}
	for _, s := range c.Damaged {
		if !s.Valid() {
			return fmt.Errorf("scenarios: cell %q: damaged snapshot %d outside the study window", c.ID, int(s))
		}
	}
	for _, s := range c.ScoreSnapshots {
		if !s.Valid() {
			return fmt.Errorf("scenarios: cell %q: score snapshot %d outside the study window", c.ID, int(s))
		}
	}
	if len(c.Outages)+len(c.Damaged) >= timeline.Count() {
		return fmt.Errorf("scenarios: cell %q: every study month is an outage", c.ID)
	}
	for _, th := range []struct {
		name string
		v    float64
	}{
		{"min_precision", c.Thresholds.MinPrecision},
		{"min_recall", c.Thresholds.MinRecall},
		{"min_coverage", c.Thresholds.MinCoverage},
	} {
		if math.IsNaN(th.v) || th.v < 0 || th.v > 100 {
			return fmt.Errorf("scenarios: cell %q: threshold %s = %v out of [0, 100]", c.ID, th.name, th.v)
		}
	}
	if c.Thresholds.MaxSpurious < 0 {
		return fmt.Errorf("scenarios: cell %q: max_spurious %d is negative", c.ID, c.Thresholds.MaxSpurious)
	}
	return nil
}

// fullBaseScale keeps a full-grid cell's study in the low seconds; the
// scale family sweeps above and below it.
const fullBaseScale = 0.01

// smokeScale is the reduced-grid scale CI can afford.
const smokeScale = 0.005

// FullGrid is the committed ≥24-cell matrix behind results/SCENARIOS.json:
// six families of adversarial worlds, every cell thresholded. seed
// drives every world; the committed artifact uses seed 1.
func FullGrid(seed uint64) []Cell {
	base := worldsim.Config{Seed: seed, Scale: fullBaseScale}
	mk := func(family, name, label string, cfg worldsim.Config, th Thresholds) Cell {
		return Cell{ID: family + "/" + name, Family: family, Label: label, Config: cfg, Thresholds: th}
	}
	healthy := Thresholds{MinPrecision: 90, MinRecall: 80, MinCoverage: 100}

	var cells []Cell

	// scale: the methodology must hold from toy worlds to the largest
	// affordable ones.
	for _, sc := range []float64{0.005, 0.0075, 0.01, 0.015, 0.02, 0.03} {
		cfg := base
		cfg.Scale = sc
		th := healthy
		if sc <= 0.005 {
			// A ~350-AS world quantizes recall hard; keep the gate honest
			// but looser.
			th.MinRecall = 70
		}
		cells = append(cells, mk("scale", fmt.Sprintf("%g", sc), fmt.Sprintf("world scale %g", sc), cfg, th))
	}

	// v6: IPv6-only eyeballs are invisible to the IPv4 corpus (§7); the
	// recall floor tracks the visible share with margin.
	for _, f := range []float64{0.05, 0.1, 0.2, 0.3, 0.4} {
		cfg := base
		cfg.IPv6OnlyASFrac = f
		th := Thresholds{MinPrecision: 90, MinRecall: (1 - f) * 65, MinCoverage: 100}
		cells = append(cells, mk("v6", fmt.Sprintf("%g", f), fmt.Sprintf("%.0f%% of eyeball ASes IPv6-only", 100*f), cfg, th))
	}

	// hide: §8 evasion. Recall is allowed to collapse; precision of
	// whatever survives must not.
	hideCells := []struct {
		name, label string
		hide        worldsim.HideAndSeek
		th          Thresholds
	}{
		{"null-0.5", "null default certs on 50% of off-nets",
			worldsim.HideAndSeek{NullDefaultCertFrac: 0.5},
			Thresholds{MinPrecision: 85, MinRecall: 25, MinCoverage: 100}},
		{"null-0.95", "null default certs on 95% of off-nets",
			worldsim.HideAndSeek{NullDefaultCertFrac: 0.95},
			Thresholds{MinPrecision: 80, MinCoverage: 100}},
		{"strip-org", "Subject Organization stripped from off-net certs",
			worldsim.HideAndSeek{StripOrganization: true},
			Thresholds{MaxSpurious: 3, MinCoverage: 100}},
		{"anon-headers", "identifying debug headers stripped",
			worldsim.HideAndSeek{AnonymizeHeaders: true},
			Thresholds{MinPrecision: 80, MinCoverage: 100}},
		{"strip+anon", "stripped Organization and anonymized headers",
			worldsim.HideAndSeek{StripOrganization: true, AnonymizeHeaders: true},
			Thresholds{MaxSpurious: 3, MinCoverage: 100}},
		{"full-evasion", "null certs + stripped Organization + anonymized headers",
			worldsim.HideAndSeek{NullDefaultCertFrac: 0.95, StripOrganization: true, AnonymizeHeaders: true},
			Thresholds{MaxSpurious: 3, MinCoverage: 100}},
	}
	for _, hc := range hideCells {
		cfg := base
		cfg.Hide = hc.hide
		cells = append(cells, mk("hide", hc.name, hc.label, cfg, hc.th))
	}

	// certreuse: aggressive customer-certificate reuse attacks the
	// §4.3/§7 filters — precision must survive a corpus full of shared
	// and customer certificates.
	reuse := []struct {
		name, label  string
		shared       float64
		customerMult float64
	}{
		{"shared-0.02", "2% of background hosts share HG certs", 0.02, 0},
		{"shared-0.05", "5% of background hosts share HG certs", 0.05, 0},
		{"shared-0.1", "10% of background hosts share HG certs", 0.1, 0},
		{"cf-boost-3", "Cloudflare customer footprint ×3", 0, 3},
		{"cf-boost-6", "Cloudflare customer footprint ×6", 0, 6},
		{"shared+boost", "5% shared certs and Cloudflare ×3", 0.05, 3},
	}
	for _, rc := range reuse {
		cfg := base
		cfg.SharedCertFrac = rc.shared
		cfg.CustomerCertBoost = rc.customerMult
		cells = append(cells, mk("certreuse", rc.name, rc.label, cfg, healthy))
	}

	// flash: trajectory overrides — sudden expansion, deep retreat, and
	// surges must be tracked snapshot by snapshot, not just at the end.
	flash := []struct {
		name, label string
		traj        map[hg.ID]worldsim.TrajectoryOverride
		scoreAt     []timeline.Snapshot
		th          Thresholds
	}{
		{"google-flash", "Google flash expansion +2000 ASes @ 2018-10",
			map[hg.ID]worldsim.TrajectoryOverride{hg.Google: {FlashPeakASes: 2000, FlashAt: 20, FlashWidth: 5}},
			[]timeline.Snapshot{20}, healthy},
		{"netflix-retreat", "Netflix off-net footprint shrunk to 30%",
			map[hg.ID]worldsim.TrajectoryOverride{hg.Netflix: {OffNetScale: 0.3}},
			nil, healthy},
		{"akamai-surge", "Akamai off-net footprint grown 2.5×",
			map[hg.ID]worldsim.TrajectoryOverride{hg.Akamai: {OffNetScale: 2.5}},
			nil, healthy},
		{"fb-flash-retreat", "Facebook halved with a +1500 AS flash @ 2019-10",
			map[hg.ID]worldsim.TrajectoryOverride{hg.Facebook: {OffNetScale: 0.5, FlashPeakASes: 1500, FlashAt: 24, FlashWidth: 4}},
			[]timeline.Snapshot{24}, healthy},
		{"twitter-flash", "Twitter flash expansion +300 ASes @ 2020-10",
			map[hg.ID]worldsim.TrajectoryOverride{hg.Twitter: {FlashPeakASes: 300, FlashAt: 28, FlashWidth: 3}},
			[]timeline.Snapshot{28}, healthy},
	}
	for _, fc := range flash {
		cfg := base
		cfg.Trajectories = fc.traj
		c := mk("flash", fc.name, fc.label, cfg, fc.th)
		c.ScoreSnapshots = fc.scoreAt
		cells = append(cells, c)
	}

	// outage: vendor-months vanish mid-study; the runner must degrade
	// to reduced coverage, never to wrong footprints.
	outages := []struct {
		name, label    string
		out, damaged   [2]int
		hasOut, hasDmg bool
		th             Thresholds
	}{
		{"early", "vendor dark 2014-10..2015-07", [2]int{4, 7}, [2]int{}, true, false,
			Thresholds{MinPrecision: 90, MinRecall: 80, MinCoverage: 87}},
		{"mid", "vendor dark 2017-04..2018-04", [2]int{14, 18}, [2]int{}, true, false,
			Thresholds{MinPrecision: 90, MinRecall: 80, MinCoverage: 83}},
		{"late", "vendor dark 2020-07..2021-04", [2]int{27, 30}, [2]int{}, true, false,
			Thresholds{MinPrecision: 90, MinRecall: 80, MinCoverage: 87}},
		{"damaged-mid", "four vendor-months unreadable 2016-04..2017-01", [2]int{}, [2]int{10, 13}, false, true,
			Thresholds{MinPrecision: 90, MinRecall: 80, MinCoverage: 87}},
	}
	for _, oc := range outages {
		c := mk("outage", oc.name, oc.label, base, oc.th)
		if oc.hasOut {
			for s := oc.out[0]; s <= oc.out[1]; s++ {
				c.Outages = append(c.Outages, timeline.Snapshot(s))
			}
		}
		if oc.hasDmg {
			for s := oc.damaged[0]; s <= oc.damaged[1]; s++ {
				c.Damaged = append(c.Damaged, timeline.Snapshot(s))
			}
		}
		cells = append(cells, c)
	}

	return cells
}

// SmokeGrid is the reduced grid `make scenarios-smoke` runs in CI: one
// representative cell per family at a scale small enough for seconds,
// with thresholds loosened for the quantization of ~350-AS worlds.
func SmokeGrid(seed uint64) []Cell {
	base := worldsim.Config{Seed: seed, Scale: smokeScale}
	mk := func(family, name, label string, cfg worldsim.Config, th Thresholds) Cell {
		return Cell{ID: family + "/" + name, Family: family, Label: label, Config: cfg, Thresholds: th}
	}
	healthy := Thresholds{MinPrecision: 85, MinRecall: 65, MinCoverage: 100}

	v6 := base
	v6.IPv6OnlyASFrac = 0.2
	hide := base
	hide.Hide = worldsim.HideAndSeek{NullDefaultCertFrac: 0.95}
	reuse := base
	reuse.SharedCertFrac = 0.05
	flash := base
	flash.Trajectories = map[hg.ID]worldsim.TrajectoryOverride{hg.Netflix: {OffNetScale: 0.3}}

	cells := []Cell{
		mk("scale", "base", fmt.Sprintf("world scale %g", smokeScale), base, healthy),
		mk("v6", "0.2", "20% of eyeball ASes IPv6-only", v6,
			Thresholds{MinPrecision: 85, MinRecall: 45, MinCoverage: 100}),
		mk("hide", "null-0.95", "null default certs on 95% of off-nets", hide,
			Thresholds{MinPrecision: 75, MinCoverage: 100}),
		mk("certreuse", "shared-0.05", "5% of background hosts share HG certs", reuse, healthy),
		mk("flash", "netflix-retreat", "Netflix off-net footprint shrunk to 30%", flash, healthy),
	}
	outage := mk("outage", "mid", "vendor dark 2017-04..2018-04", base,
		Thresholds{MinPrecision: 85, MinRecall: 65, MinCoverage: 83})
	for s := 14; s <= 18; s++ {
		outage.Outages = append(outage.Outages, timeline.Snapshot(s))
	}
	return append(cells, outage)
}

// Grids names the curated grids for CLI selection.
func Grids() []string { return []string{"full", "smoke"} }

// GridByName resolves a curated grid.
func GridByName(name string, seed uint64) ([]Cell, error) {
	switch name {
	case "full":
		return FullGrid(seed), nil
	case "smoke":
		return SmokeGrid(seed), nil
	}
	return nil, fmt.Errorf("scenarios: unknown grid %q (have: full, smoke)", name)
}

// Families lists the distinct families of a grid, in first-seen order.
func Families(cells []Cell) []string {
	seen := make(map[string]bool)
	var out []string
	for _, c := range cells {
		if !seen[c.Family] {
			seen[c.Family] = true
			out = append(out, c.Family)
		}
	}
	return out
}

// ByID finds one cell in a grid.
func ByID(cells []Cell, id string) (Cell, bool) {
	for _, c := range cells {
		if c.ID == id {
			return c, true
		}
	}
	return Cell{}, false
}

// ValidateGrid checks every cell and demands unique IDs.
func ValidateGrid(cells []Cell) error {
	seen := make(map[string]bool, len(cells))
	for _, c := range cells {
		if err := c.Validate(); err != nil {
			return err
		}
		if seen[c.ID] {
			return fmt.Errorf("scenarios: duplicate cell id %q", c.ID)
		}
		seen[c.ID] = true
	}
	return nil
}
