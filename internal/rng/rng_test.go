package rng

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/100 identical outputs", same)
	}
}

func TestForkIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Fork("astopo")
	// Consuming the parent must not change what a same-label fork yields.
	parent2 := New(7)
	for i := 0; i < 50; i++ {
		parent2.Uint64()
	}
	c2 := parent2.Fork("astopo")
	for i := 0; i < 100; i++ {
		if c1.Uint64() != c2.Uint64() {
			t.Fatal("fork stream depends on parent consumption")
		}
	}
	if New(7).Fork("a").Uint64() == New(7).Fork("b").Uint64() {
		t.Error("different labels should fork different streams")
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		n := r.Intn(17)
		if n < 0 || n >= 17 {
			t.Fatalf("Intn(17) = %d", n)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) should panic")
		}
	}()
	r.Intn(0)
}

func TestFloat64Range(t *testing.T) {
	r := New(9)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
		sum += f
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Errorf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestBoolProbability(t *testing.T) {
	r := New(11)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bool(0.25) {
			hits++
		}
	}
	frac := float64(hits) / n
	if math.Abs(frac-0.25) > 0.01 {
		t.Errorf("Bool(0.25) frequency = %v", frac)
	}
	if r.Bool(0) {
		t.Error("Bool(0) must be false")
	}
	if !r.Bool(1) {
		t.Error("Bool(1) must be true")
	}
}

func TestWeightedPick(t *testing.T) {
	r := New(23)
	w := []float64{0, 1, 3, 0}
	counts := make([]int, len(w))
	for i := 0; i < 40000; i++ {
		counts[r.WeightedPick(w)]++
	}
	if counts[0] != 0 || counts[3] != 0 {
		t.Errorf("zero-weight entries picked: %v", counts)
	}
	ratio := float64(counts[2]) / float64(counts[1])
	if math.Abs(ratio-3) > 0.3 {
		t.Errorf("weight ratio = %v, want ~3", ratio)
	}
	if r.WeightedPick([]float64{0, 0}) != 0 {
		t.Error("all-zero weights should return 0")
	}
}

func TestPick(t *testing.T) {
	r := New(29)
	xs := []int{1, 2, 3, 4, 5}
	v := Pick(r, xs)
	found := false
	for _, x := range xs {
		if x == v {
			found = true
		}
	}
	if !found {
		t.Fatalf("Pick returned %d not in slice", v)
	}
}

func TestInt63nBounds(t *testing.T) {
	r := New(31)
	for i := 0; i < 1000; i++ {
		if v := r.Int63n(1000); v < 0 || v >= 1000 {
			t.Fatalf("Int63n out of range: %d", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Int63n(0) should panic")
		}
	}()
	r.Int63n(0)
}
