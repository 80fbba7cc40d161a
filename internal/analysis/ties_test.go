package analysis

import (
	"reflect"
	"strings"
	"testing"

	"offnetscope/internal/hg"
)

// TestTopGainersBreakTiesByCode: Fig 8 ranks countries by coverage gain
// and cuts the list at ten. Eleven countries tie below the largest gain
// (seven tie at 0.0→100.0 at scale 0.1); in whatever order they arrive,
// the same ten are kept, in country-code order.
func TestTopGainersBreakTiesByCode(t *testing.T) {
	var gains []CountryGain
	for _, code := range []string{"ZA", "US", "NG", "MX", "KE", "JP", "IN", "FR", "DE", "CL", "BR"} {
		gains = append(gains, CountryGain{Code: code, Direct: 20, Cone: 70})
	}
	gains = append(gains,
		CountryGain{Code: "ZW", Direct: 0, Cone: 100}, // the largest gain leads whatever its code
		CountryGain{Code: "AR", Direct: 40, Cone: 45}, // the smallest is cut
	)
	want := []string{"ZW", "BR", "CL", "DE", "FR", "IN", "JP", "KE", "MX", "NG"}

	for rot := 0; rot < len(gains); rot++ {
		for _, reverse := range []bool{false, true} {
			in := append(append([]CountryGain(nil), gains[rot:]...), gains[:rot]...)
			if reverse {
				for i, j := 0, len(in)-1; i < j; i, j = i+1, j-1 {
					in[i], in[j] = in[j], in[i]
				}
			}
			var got []string
			for _, g := range topGainers(in) {
				got = append(got, g.Code)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("rotation %d (reversed %v): top gainers %v, want %v", rot, reverse, got, want)
			}
		}
	}
}

// TestValCrossRenderBreaksTiesByID: hypergiants with equal validator
// shares render in ID order, whatever the map's iteration order.
func TestValCrossRenderBreaksTiesByID(t *testing.T) {
	v := &ValCrossResult{ValidatorShare: map[hg.ID]float64{
		hg.Verizon: 25, hg.Akamai: 25, hg.Fastly: 25, hg.Google: 12.5, hg.Netflix: 12.5,
	}}
	want := []string{"Akamai", "Fastly", "Verizon", "Google", "Netflix"}
	for i := 0; i < 50; i++ {
		var got []string
		for _, line := range strings.Split(v.Render(), "\n") {
			if f := strings.Fields(line); len(f) == 2 && strings.HasSuffix(f[1], "%") {
				got = append(got, f[0])
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: validators render as %v, want %v", i, got, want)
		}
	}
}
