package obs

import (
	"bytes"
	"reflect"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry("t")
	c := r.Counter("a")
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	if r.Counter("a") != c {
		t.Fatal("Counter is not get-or-create")
	}
	g := r.Gauge("q")
	g.Set(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge = %d, want 5", got)
	}
	if r.Name() != "t" {
		t.Fatalf("Name = %q", r.Name())
	}
}

func TestNilRegistryDiscards(t *testing.T) {
	var r *Registry
	r.Counter("x").Add(5)
	r.Gauge("y").Set(5)
	r.Histogram("z").Observe(5)
	r.Histogram("z").Since(time.Now())
	if r.Name() != "" {
		t.Fatal("nil registry has a name")
	}
	s := r.Snapshot()
	if s.Counters != nil || s.Gauges != nil || s.Histograms != nil {
		t.Fatalf("nil registry snapshot is not empty: %+v", s)
	}
}

func TestHistogramBuckets(t *testing.T) {
	// Bucket i spans [2^(i-1), 2^i); bucket 0 takes v <= 0.
	cases := []struct {
		v   int64
		pow int
	}{
		{-3, 0}, {0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {1023, 10}, {1024, 11},
	}
	for _, c := range cases {
		if got := bucketIndex(c.v); got != c.pow {
			t.Errorf("bucketIndex(%d) = %d, want %d", c.v, got, c.pow)
		}
		lo, hi := BucketBounds(c.pow)
		if c.v > 0 && (c.v < lo || c.v >= hi) {
			t.Errorf("value %d outside BucketBounds(%d) = [%d, %d)", c.v, c.pow, lo, hi)
		}
	}

	r := NewRegistry("t")
	h := r.Histogram("lat")
	for _, v := range []int64{1, 2, 3, 100, 0} {
		h.Observe(v)
	}
	hs := r.Snapshot().Histograms["lat"]
	if hs.Count != 5 || hs.Sum != 106 {
		t.Fatalf("hist = %+v", hs)
	}
	want := []Bucket{{Pow: 0, N: 1}, {Pow: 1, N: 1}, {Pow: 2, N: 2}, {Pow: 7, N: 1}}
	if !reflect.DeepEqual(hs.Buckets, want) {
		t.Fatalf("buckets = %v, want %v", hs.Buckets, want)
	}
	if hs.Mean() != 106/5 {
		t.Fatalf("mean = %d", hs.Mean())
	}
}

func TestSnapshotJSONDeterministic(t *testing.T) {
	build := func() Snapshot {
		r := NewRegistry("det")
		r.Counter("b").Add(2)
		r.Counter("a").Add(1)
		r.Gauge("g").Set(9)
		r.Histogram("h").Observe(5)
		r.Histogram("h").Observe(500)
		return r.Snapshot()
	}
	var bufs [2]bytes.Buffer
	for i := range bufs {
		if err := build().WriteJSON(&bufs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if bufs[0].String() != bufs[1].String() {
		t.Fatalf("snapshot JSON is not deterministic:\n%s\nvs\n%s", bufs[0].String(), bufs[1].String())
	}

	// Round trip: parse then re-marshal byte-identically.
	parsed, err := ParseSnapshot(bufs[0].Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := parsed.WriteJSON(&again); err != nil {
		t.Fatal(err)
	}
	if again.String() != bufs[0].String() {
		t.Fatalf("round trip changed JSON:\n%s\nvs\n%s", again.String(), bufs[0].String())
	}
}

// TestConcurrentNoLostCounts is the documented concurrency contract:
// counts are never lost, whatever the interleaving. Run under -race by
// the chaos-race target.
func TestConcurrentNoLostCounts(t *testing.T) {
	const goroutines = 8
	const perG = 10000
	r := NewRegistry("race")
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < perG; j++ {
				r.Counter("n").Inc()
				r.Gauge("g").Add(1)
				r.Histogram("h").Observe(int64(j))
				if j%100 == 0 {
					_ = r.Snapshot() // snapshots race with writers by design
				}
			}
		}(i)
	}
	wg.Wait()
	s := r.Snapshot()
	if s.Counter("n") != goroutines*perG {
		t.Fatalf("lost counter increments: %d", s.Counter("n"))
	}
	if s.Gauges["g"] != goroutines*perG {
		t.Fatalf("lost gauge adds: %d", s.Gauges["g"])
	}
	h := s.Histograms["h"]
	if h.Count != goroutines*perG {
		t.Fatalf("lost observations: %d", h.Count)
	}
	var inBuckets uint64
	for _, bk := range h.Buckets {
		inBuckets += bk.N
	}
	if inBuckets != h.Count {
		t.Fatalf("bucket sum %d != count %d", inBuckets, h.Count)
	}
}

// TestHistogramQuantile: quantiles resolve to the upper bound of the
// log2 bucket holding the ranked observation.
func TestHistogramQuantile(t *testing.T) {
	reg := NewRegistry("q")
	h := reg.Histogram("lat")
	// 90 fast observations in [64,128) and 10 slow in [65536,131072).
	for i := 0; i < 90; i++ {
		h.Observe(100)
	}
	for i := 0; i < 10; i++ {
		h.Observe(100_000)
	}
	hs := reg.Snapshot().Histograms["lat"]

	if got := hs.Quantile(0.50); got != 127 {
		t.Errorf("p50 = %d, want 127", got)
	}
	if got := hs.Quantile(0.90); got != 127 {
		t.Errorf("p90 = %d, want 127 (rank 90 is the last fast observation)", got)
	}
	if got := hs.Quantile(0.99); got != 131071 {
		t.Errorf("p99 = %d, want 131071", got)
	}
	if got := hs.Quantile(1.0); got != 131071 {
		t.Errorf("p100 = %d, want 131071", got)
	}
	// Clamping and the empty histogram.
	if got := hs.Quantile(-1); got != 127 {
		t.Errorf("q<0 clamps to min bucket, got %d", got)
	}
	var empty HistogramSnapshot
	if got := empty.Quantile(0.99); got != 0 {
		t.Errorf("empty histogram quantile = %d, want 0", got)
	}
}
