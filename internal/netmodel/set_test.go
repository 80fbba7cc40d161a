package netmodel

import (
	"bufio"
	"compress/gzip"
	"os"
	"testing"
)

// testSetMul is the hash multiplier TestSetStructuredKeys fixes in
// place of a set's random one, so its probe runs are the same every
// time. Five other odd multipliers gave longest runs of 2–5 on the
// shaped keys and 14–22 on the certificate IPs.
const testSetMul = 0x9e3779b97f4a7c15

// TestSetSeeded pins the per-set seed: every set draws its own odd
// multiplier when it first allocates, a zero-value set on its first Add.
func TestSetSeeded(t *testing.T) {
	a, b := NewSet[IP](1), &Set[IP]{}
	b.Add(1)
	if a.mul&1 == 0 || b.mul&1 == 0 || a.mul == b.mul {
		t.Errorf("multipliers %#x and %#x, want two different odd ones", a.mul, b.mul)
	}
}

// TestSetStructuredKeys bounds the longest run of occupied slots, the
// most a probe can step, for key sets shaped as addresses are: aligned
// /16 and /24 blocks, a consecutive range, and the distinct
// certificate IPs of one month of the seed-1 benchmark corpus. A hash
// that reads only a key's low or high bits puts aligned or consecutive
// keys in one run, and probing them turns linear.
//
// The certificate IPs are those of certs.ndjson.gz at 2021-04 in
// `worldgen -seed 1 -scale 0.005 -vendors rapid7 -from 2019-04 -to
// 2021-04`, deduplicated and sorted; a run's slots do not depend on
// the order keys arrive in.
func TestSetStructuredKeys(t *testing.T) {
	const n, maxRun = 1 << 16, 32
	shaped := func(f func(j uint32) IP) []IP {
		keys := make([]IP, n)
		for j := range keys {
			keys[j] = f(uint32(j))
		}
		return keys
	}
	for _, c := range []struct {
		name string
		keys []IP
	}{
		{"j<<16", shaped(func(j uint32) IP { return IP(j << 16) })},
		{"j<<8", shaped(func(j uint32) IP { return IP(j << 8) })},
		{"j", shaped(func(j uint32) IP { return IP(j) })},
		{"seed-1 2021-04 certificate IPs", readIPs(t, "testdata/certips-seed1-2021-04.txt.gz")},
	} {
		s := NewSet[IP](len(c.keys))
		s.mul = testSetMul
		for _, k := range c.keys {
			s.Add(k)
		}
		if s.Len() != len(c.keys) {
			t.Errorf("%s: Len %d, want %d", c.name, s.Len(), len(c.keys))
		}
		for _, k := range c.keys {
			if !s.Has(k) {
				t.Fatalf("%s: %v missing", c.name, k)
			}
		}
		if run := longestRun(s.slots); run > maxRun {
			t.Errorf("%s: %d keys in %d slots, longest run %d, want at most %d", c.name, len(c.keys), len(s.slots), run, maxRun)
		}
	}
}

// longestRun is the length of the longest run of occupied slots,
// counted around the end of the array.
func longestRun[K ~uint32](slots []K) int {
	longest, run := 0, 0
	for i := 0; i < 2*len(slots); i++ {
		if slots[i%len(slots)] == 0 {
			run = 0
			continue
		}
		run++
		longest = max(longest, min(run, len(slots)))
	}
	return longest
}

// readIPs reads a gzipped file of dotted-quad addresses, one a line.
func readIPs(t *testing.T, path string) []IP {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	var ips []IP
	sc := bufio.NewScanner(zr)
	for sc.Scan() {
		ip, err := ParseIP(sc.Text())
		if err != nil {
			t.Fatal(err)
		}
		ips = append(ips, ip)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return ips
}

// FuzzSet runs a sequence of Add, Has and Len on a zero-value set and
// on one made by NewSet(n), checking both against a map after every
// step. Each op takes three bytes: the op, and a key built from two
// bytes and a shift, so key 0, repeated keys and keys that share their
// low or high bits all come up. The presized set must not reallocate
// while it holds at most n keys, and no set may be more than half full.
func FuzzSet(f *testing.F) {
	f.Add(uint16(0), []byte{0, 0, 0, 0, 1, 0, 2, 1, 0, 1, 0, 0, 3, 0, 0})
	f.Add(uint16(3), []byte{0, 7, 0, 0, 7, 0, 0, 8, 0, 0, 9, 0, 0, 10, 0, 2, 8, 0, 2, 11, 0})
	f.Add(uint16(100), []byte{0x40, 1, 0, 0x40, 2, 0, 0x40, 3, 0, 0x42, 3, 0, 0x42, 4, 0, 0x7c, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, n uint16, ops []byte) {
		presized := NewSet[uint32](int(n))
		size := len(presized.slots)
		sets := []*Set[uint32]{{}, presized}
		ref := map[uint32]struct{}{}
		for ; len(ops) >= 3; ops = ops[3:] {
			op, shift := ops[0]&3, (ops[0]>>2)&31
			key := (uint32(ops[1]) | uint32(ops[2])<<8) << shift
			for i, s := range sets {
				switch op {
				case 0, 1:
					s.Add(key)
				case 2:
					_, want := ref[key]
					if got := s.Has(key); got != want {
						t.Fatalf("set %d: Has(%#x) = %v, want %v", i, key, got, want)
					}
				}
				if op < 2 {
					ref[key] = struct{}{}
				}
				if s.Len() != len(ref) {
					t.Fatalf("set %d: Len %d, want %d", i, s.Len(), len(ref))
				}
				if 2*s.n > len(s.slots) {
					t.Fatalf("set %d: %d keys in %d slots", i, s.n, len(s.slots))
				}
			}
			if presized.n <= int(n) && len(presized.slots) != size {
				t.Fatalf("NewSet(%d) grew from %d to %d slots holding %d keys", n, size, len(presized.slots), presized.n)
			}
		}
		for key := range ref {
			for i, s := range sets {
				if !s.Has(key) {
					t.Fatalf("set %d: Has(%#x) = false after Add", i, key)
				}
			}
		}
	})
}
