// Package obs is the repo's dependency-free observability core: atomic
// counters, gauges, and fixed log-scale histograms grouped into named
// registries that snapshot to deterministic JSON.
//
// The package exists so the inference funnel (§3–§4 of the paper) is
// measurable at every stage — certs seen, HG-cert matches, header
// confirmations, off-net attributions, drops by reason — without
// pulling a metrics dependency into the hot path. Design rules:
//
//   - Writers never take a lock. Counter/Gauge/Histogram updates are
//     single atomic operations; Registry lookups take a mutex, so hot
//     paths resolve their metrics once and hold the pointer.
//   - Counts are never lost. Concurrent Add calls all land; the only
//     documented relaxation is that a Snapshot taken while writers are
//     active may observe different metrics at slightly different
//     instants (each individual value is still atomically consistent).
//   - Counters are deterministic for a deterministic workload: addition
//     commutes, so funnel totals are byte-identical across runs and
//     across worker counts. Histograms measure wall time and are
//     explicitly excluded from that guarantee (their observation
//     *counts* are deterministic, their sums and buckets are not).
//   - Snapshots marshal to deterministic JSON (sorted keys, sorted
//     buckets, zero buckets omitted) so golden tests can compare them
//     byte-for-byte.
//
// A nil *Registry is valid everywhere and discards all updates, so
// instrumented packages need no "is observability on" branches.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic count.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative n is allowed but not meaningful for funnels).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic instantaneous value (queue depth, open files).
type Gauge struct{ v atomic.Int64 }

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the value by n.
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// numBuckets covers every int64: bucket 0 holds v <= 0, bucket i holds
// values with bit length i, i.e. [2^(i-1), 2^i).
const numBuckets = 65

// Histogram is a fixed log2-bucket histogram on atomics: bucket
// boundaries are powers of two, so any nonneg int64 (latencies in
// nanoseconds, sizes in bytes) lands in one of 65 buckets with two
// instructions and no float math.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Int64
	buckets [numBuckets]atomic.Uint64
}

// bucketIndex maps a value to its bucket: 0 for v <= 0, else the bit
// length of v (so bucket i spans [2^(i-1), 2^i)).
func bucketIndex(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}

// BucketBounds returns the half-open value range [lo, hi) of bucket
// pow; bucket 0 is (-inf, 1) by convention.
func BucketBounds(pow int) (lo, hi int64) {
	if pow <= 0 {
		return 0, 1
	}
	return 1 << (pow - 1), 1 << pow
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bucketIndex(v)].Add(1)
}

// Since records the elapsed wall time (in nanoseconds) since start —
// the idiomatic stage timer: defer reg.Histogram("x_ns").Since(start).
func (h *Histogram) Since(start time.Time) { h.Observe(int64(time.Since(start))) }

// Count returns how many values were observed.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Registry is a named collection of metrics, created on first use.
// Lookups are mutex-guarded get-or-create; all updates on the returned
// metric are lock-free. A nil *Registry is valid: it hands out shared
// discard metrics whose values are never read.
type Registry struct {
	name string

	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// nop holds the discard metrics a nil registry hands out. They absorb
// writes from every uninstrumented caller at once, which is safe
// because nothing ever reads them.
var nop struct {
	c Counter
	g Gauge
	h Histogram
}

// NewRegistry returns an empty registry with the given report name.
func NewRegistry(name string) *Registry {
	return &Registry{
		name:     name,
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Name returns the registry's report name ("" for nil).
func (r *Registry) Name() string {
	if r == nil {
		return ""
	}
	return r.name
}

// Counter returns the named counter, creating it at zero on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return &nop.c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it at zero on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return &nop.g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it empty on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return &nop.h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Bucket is one non-empty histogram bucket: N values whose bucketIndex
// is Pow (i.e. values in [2^(Pow-1), 2^Pow); Pow 0 holds v <= 0).
type Bucket struct {
	Pow int    `json:"pow"`
	N   uint64 `json:"n"`
}

// HistogramSnapshot is a histogram frozen for reporting: total count,
// value sum, and the non-empty buckets in ascending Pow order.
type HistogramSnapshot struct {
	Count   uint64   `json:"count"`
	Sum     int64    `json:"sum"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Mean returns the mean observed value (0 when empty).
func (h HistogramSnapshot) Mean() int64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / int64(h.Count)
}

// Quantile returns an upper bound on the q-quantile of the observed
// values: the inclusive upper edge (2^pow - 1) of the first bucket at
// which the cumulative count reaches ceil(q·Count). Log2 buckets bound
// the estimate within 2× of the true value, which is the right
// resolution for serving-latency percentiles (p50/p99/p999) without
// storing samples. q is clamped to [0, 1]; an empty histogram reports 0.
func (h HistogramSnapshot) Quantile(q float64) int64 {
	if h.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(h.Count)))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for _, b := range h.Buckets {
		cum += b.N
		if cum >= rank {
			if b.Pow <= 0 {
				return 0
			}
			if b.Pow >= 63 {
				return math.MaxInt64
			}
			return (int64(1) << b.Pow) - 1
		}
	}
	return 0
}

// Snapshot is a registry frozen at one instant. It marshals to
// deterministic JSON: encoding/json sorts map keys, buckets are sorted
// by Pow, and empty sections are omitted.
type Snapshot struct {
	Name       string                       `json:"name,omitempty"`
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot freezes the registry's current values. Taken while writers
// are active it is a consistent-per-metric view: each value is read
// atomically, but two metrics may be read a few instructions apart.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{Name: r.name}
	if len(r.counters) > 0 {
		s.Counters = make(map[string]int64, len(r.counters))
		for name, c := range r.counters {
			s.Counters[name] = c.Value()
		}
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]int64, len(r.gauges))
		for name, g := range r.gauges {
			s.Gauges[name] = g.Value()
		}
	}
	if len(r.hists) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(r.hists))
		for name, h := range r.hists {
			hs := HistogramSnapshot{Count: h.count.Load(), Sum: h.sum.Load()}
			for pow := 0; pow < numBuckets; pow++ {
				if n := h.buckets[pow].Load(); n > 0 {
					hs.Buckets = append(hs.Buckets, Bucket{Pow: pow, N: n})
				}
			}
			s.Histograms[name] = hs
		}
	}
	return s
}

// Counter returns a snapshot counter's value (0 when absent) — the
// accessor golden tests and report renderers use.
func (s Snapshot) Counter(name string) int64 { return s.Counters[name] }

// WriteJSON writes the snapshot as indented, deterministically ordered
// JSON followed by a newline.
func (s Snapshot) WriteJSON(w io.Writer) error {
	raw, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return fmt.Errorf("obs: %w", err)
	}
	raw = append(raw, '\n')
	_, err = w.Write(raw)
	return err
}

// ParseSnapshot decodes a snapshot previously produced by WriteJSON (or
// plain json.Marshal). It normalizes the bucket order so that a parsed
// snapshot re-marshals byte-identically.
func ParseSnapshot(raw []byte) (Snapshot, error) {
	var s Snapshot
	if err := json.Unmarshal(raw, &s); err != nil {
		return Snapshot{}, fmt.Errorf("obs: parsing snapshot: %w", err)
	}
	for name, h := range s.Histograms {
		sort.Slice(h.Buckets, func(i, j int) bool { return h.Buckets[i].Pow < h.Buckets[j].Pow })
		s.Histograms[name] = h
	}
	return s, nil
}
