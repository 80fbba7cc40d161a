package scenarios

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"testing"

	"offnetscope/internal/hg"
	"offnetscope/internal/timeline"
	"offnetscope/internal/worldsim"
)

// FuzzScenarioConfig hammers the world knobs grid cells set on a
// worldsim.Config: Validate must accept exactly when every knob is
// finite and in range, WithDefaults must be idempotent on an accepted
// config, a Cell over an accepted config must validate, and a matrix
// row for that cell must round-trip through the canonical JSON
// encoding byte for byte.
func FuzzScenarioConfig(f *testing.F) {
	f.Add(uint64(1), 0.01, 0.2, 0.95, 0.05, 3.0, 0.3, 2000.0, 20, 5)
	f.Add(uint64(0), -1.0, 1.5, -0.5, 2.0, -3.0, 101.0, -100.0, -5, 99)
	f.Add(uint64(math.MaxUint64), math.Inf(1), math.NaN(), 0.5, math.NaN(), math.Inf(-1), math.NaN(), 1e7, 1000, -1000)
	f.Add(uint64(7), 2.0, 1.0, 1.0, 1.0, 100.0, 100.0, 1e6, 30, 31)
	f.Fuzz(func(t *testing.T, seed uint64, scale, v6, null, shared, boost, offScale, flash float64, flashAt, flashWidth int) {
		cfg := worldsim.Config{
			Seed:              seed,
			Scale:             scale,
			IPv6OnlyASFrac:    v6,
			Hide:              worldsim.HideAndSeek{NullDefaultCertFrac: null},
			SharedCertFrac:    shared,
			CustomerCertBoost: boost,
			Trajectories: map[hg.ID]worldsim.TrajectoryOverride{hg.Google: {
				OffNetScale:   offScale,
				FlashPeakASes: flash,
				FlashAt:       timeline.Snapshot(flashAt),
				FlashWidth:    flashWidth,
			}},
		}
		in := func(v, hi float64) bool { return v >= 0 && v <= hi } // false for NaN and ±Inf
		want := in(scale, 2) && in(v6, 1) && in(null, 1) && in(shared, 1) && in(boost, 100) &&
			in(offScale, 100) && in(flash, 1e6) &&
			(flash == 0 || timeline.Snapshot(flashAt).Valid()) &&
			flashWidth >= 0 && flashWidth <= timeline.Count()
		err := cfg.Validate()
		if (err == nil) != want {
			t.Fatalf("Validate(%+v) = %v, want accepted %t", cfg, err, want)
		}
		if err != nil {
			return
		}

		once := cfg.WithDefaults()
		if twice := once.WithDefaults(); !reflect.DeepEqual(once, twice) {
			t.Fatalf("WithDefaults not idempotent: %+v vs %+v", once, twice)
		}
		c := Cell{
			ID:         "fuzz/cell",
			Family:     "fuzz",
			Label:      fmt.Sprintf("scale %g, %.0f%% IPv6-only, Google flash %g @ %d", scale, 100*v6, flash, flashAt),
			Config:     cfg,
			Thresholds: Thresholds{MinPrecision: 90, MinRecall: 80, MinCoverage: 100},
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("cell over an accepted config: %v", err)
		}

		// The matrix artifact must survive decode(encode(m)) bytewise.
		m := &Matrix{Grid: "fuzz", Seed: seed, Pass: true, Cells: []CellResult{{
			ID: c.ID, Family: c.Family, Label: c.Label,
			Precision: 100 * null, Recall: 100 * shared, Coverage: boost,
			Thresholds: c.Thresholds, Pass: true,
		}}}
		data, err := m.EncodeJSON()
		if err != nil {
			t.Fatal(err)
		}
		back, err := DecodeMatrix(data)
		if err != nil {
			t.Fatalf("decoding own encoding: %v", err)
		}
		data2, err := back.EncodeJSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, data2) {
			t.Fatal("matrix JSON did not round-trip bytewise")
		}
	})
}
