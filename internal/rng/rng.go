// Package rng provides the deterministic pseudo-random number generator
// used by every simulator in offnetscope. All world generation is a pure
// function of a single seed so experiments are exactly reproducible; the
// generator is splitmix64-based, cheap to fork, and has no global state.
package rng

// RNG is a splitmix64 generator. The zero value is a valid generator
// seeded with 0; use New for an explicit seed.
type RNG struct {
	seed  uint64
	state uint64
}

// New returns a generator seeded with seed.
func New(seed uint64) *RNG {
	return &RNG{seed: seed, state: seed}
}

// Fork derives an independent child generator from the current one and a
// stream label. Identical (parent-seed, label) pairs always produce the
// same child stream regardless of how much the parent has been consumed,
// which lets subsystems own their randomness without ordering coupling.
func (r *RNG) Fork(label string) *RNG {
	h := uint64(14695981039346656037) // FNV-64 offset basis
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 1099511628211
	}
	child := mix(r.seed ^ h)
	return &RNG{seed: child, state: child}
}

func mix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Int63n returns a uniform int64 in [0, n). It panics if n <= 0.
func (r *RNG) Int63n(n int64) int64 {
	if n <= 0 {
		panic("rng: Int63n with non-positive n")
	}
	return int64(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Pick returns a uniformly chosen element of xs. It panics on an empty
// slice.
func Pick[T any](r *RNG, xs []T) T {
	return xs[r.Intn(len(xs))]
}

// WeightedPick returns an index into weights chosen with probability
// proportional to the weight. Zero or negative total weight yields 0.
func (r *RNG) WeightedPick(weights []float64) int {
	var total float64
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		return 0
	}
	x := r.Float64() * total
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}
