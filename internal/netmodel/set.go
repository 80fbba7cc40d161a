package netmodel

import "math/rand/v2"

// minSetSlots is the smallest array a non-empty Set allocates.
const minSetSlots = 8

// Set is a set of 32-bit keys (addresses, AS numbers) held in one
// open-addressed array: a key lives in the first free slot at or after
// its hash, and the array is never more than half full, so a probe
// ends at an empty slot within a few steps. Key 0 marks an empty slot,
// so it is held beside the array. The hash multiplies by a random odd
// constant drawn once per set (multiply-shift), as Go seeds each map,
// so a corpus cannot be crafted to collide in every run.
//
// Nothing iterates a set, so no output can depend on its layout. The
// zero value is an empty set ready to use. Has and Len may run on
// several goroutines at once; Add must not run beside any other call.
type Set[K ~uint32] struct {
	slots []K    // length a power of two; 0 marks an empty slot
	n     int    // keys in slots
	zero  bool   // whether key 0 is in the set
	mul   uint64 // the hash multiplier, odd; 0 until slots is allocated
	shift uint8  // 64 - log2(len(slots))
}

// NewSet returns an empty set sized to hold n keys without growing.
func NewSet[K ~uint32](n int) *Set[K] {
	s := &Set[K]{}
	if n > 0 {
		size := minSetSlots
		for size < 2*n {
			size *= 2
		}
		s.resize(size)
	}
	return s
}

// Add puts k in the set.
func (s *Set[K]) Add(k K) {
	if k == 0 {
		s.zero = true
		return
	}
	if len(s.slots) == 0 {
		s.resize(minSetSlots)
	}
	i := s.probe(k)
	if s.slots[i] == k {
		return
	}
	if 2*(s.n+1) > len(s.slots) {
		s.resize(2 * len(s.slots))
		i = s.probe(k)
	}
	s.slots[i] = k
	s.n++
}

// Has reports whether k is in the set.
func (s *Set[K]) Has(k K) bool {
	if k == 0 {
		return s.zero
	}
	if s.n == 0 {
		return false
	}
	return s.slots[s.probe(k)] == k
}

// Len is the number of keys in the set.
func (s *Set[K]) Len() int {
	if s.zero {
		return s.n + 1
	}
	return s.n
}

// probe returns the slot holding k, or the empty slot that ends k's
// probe sequence. slots must be allocated.
func (s *Set[K]) probe(k K) int {
	mask := len(s.slots) - 1
	i := int(uint64(k) * s.mul >> s.shift)
	for s.slots[i] != k && s.slots[i] != 0 {
		i = (i + 1) & mask
	}
	return i
}

// resize moves the keys into a new array of size slots, a power of two,
// drawing the hash multiplier when the set first allocates.
func (s *Set[K]) resize(size int) {
	if s.mul == 0 {
		s.mul = rand.Uint64() | 1
	}
	old := s.slots
	s.slots = make([]K, size)
	s.shift = 64
	for size > 1 {
		size >>= 1
		s.shift--
	}
	for _, k := range old {
		if k != 0 {
			s.slots[s.probe(k)] = k
		}
	}
}
