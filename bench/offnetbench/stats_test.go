package main

import "testing"

func TestQuartilesMatchPython(t *testing.T) {
	// Values from Python's statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if [3]float64{q1, q2, q3} != c.want {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.xs, q1, q2, q3, c.want)
		}
	}
}

func TestNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for q, want := range map[float64]float64{0.5: 5, 0.9: 9, 0.99: 10, 0.01: 1} {
		if got := nearestRank(xs, q); got != want {
			t.Errorf("nearestRank(q=%g) = %g, want %g", q, got, want)
		}
	}
}

func TestCompareMetricVerdicts(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	for _, c := range []struct {
		name   string
		pa, ch []float64
		want   string
	}{
		{"same runs", steady, steady, unchanged},
		{"5% faster in every pair", steady, scale(steady, 0.95), improved},
		{"5% faster but only 3 pairs", steady[:3], scale(steady[:3], 0.95), unchanged},
		{"20% slower", steady, scale(steady, 1.2), worse},
		{"parent spread wider than the bound", []float64{50, 150, 60, 140, 100}, []float64{100, 100, 100, 100, 100}, unresolved},
	} {
		if got := compareMetric(c.pa, c.ch, true, 0.1).verdict; got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}
