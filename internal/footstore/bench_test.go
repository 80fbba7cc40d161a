package footstore

import (
	"testing"

	"offnetscope/internal/astopo"
	"offnetscope/internal/hg"
	"offnetscope/internal/netmodel"
	"offnetscope/internal/rng"
	"offnetscope/internal/timeline"
)

// benchWorld sizes roughly match a full-scale study: tens of thousands
// of prefixes and a few thousand off-net ASes churning over all 31
// snapshots.
const (
	benchASes     = 4000
	benchPrefixes = 50000
)

func benchFillBuilder(b *Builder, r *rng.RNG) {
	// Churning footprints: each HG holds a random ~12 % of the AS pool
	// and flips a small fraction every snapshot.
	member := make(map[hg.ID]map[astopo.ASN]bool, hg.Count)
	for _, h := range hg.All() {
		set := make(map[astopo.ASN]bool)
		for i := 0; i < benchASes/8; i++ {
			set[astopo.ASN(r.Intn(benchASes)+1)] = true
		}
		member[h.ID] = set
	}
	for _, s := range timeline.All() {
		fp := make(map[hg.ID][]astopo.ASN, hg.Count)
		for id, set := range member {
			for i := 0; i < benchASes/100; i++ {
				as := astopo.ASN(r.Intn(benchASes) + 1)
				if set[as] {
					delete(set, as)
				} else {
					set[as] = true
				}
			}
			ases := make([]astopo.ASN, 0, len(set))
			for as := range set {
				ases = append(ases, as)
			}
			fp[id] = ases
		}
		if err := b.AddSnapshot(s, fp); err != nil {
			panic(err)
		}
	}
	for i := 0; i < benchPrefixes; i++ {
		addr := netmodel.IP(0x0a000000 + uint32(i)<<8) // 10.x.y.0/24 rows
		b.AddPrefix(netmodel.MakePrefix(addr, 24), []astopo.ASN{astopo.ASN(r.Intn(benchASes) + 1)})
	}
}

func benchStore(b *testing.B) *Store {
	b.Helper()
	builder := NewBuilder()
	benchFillBuilder(builder, rng.New(42).Fork("footstore/bench"))
	st, err := builder.Build()
	if err != nil {
		b.Fatal(err)
	}
	return st
}

func BenchmarkFootstoreBuild(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		builder := NewBuilder()
		benchFillBuilder(builder, rng.New(42).Fork("footstore/bench"))
		b.StartTimer()
		if _, err := builder.Build(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFootstoreEncode(b *testing.B) {
	st := benchStore(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = st.Encode()
	}
}

func BenchmarkFootstoreDecode(b *testing.B) {
	enc := benchStore(b).Encode()
	b.SetBytes(int64(len(enc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(enc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFootstoreLookupIP is the daemon's hot path: concurrent
// longest-prefix-match lookups against a shared store — lock-free and
// allocation-free.
func BenchmarkFootstoreLookupIP(b *testing.B) {
	st := benchStore(b)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		r := rng.New(7).Fork("footstore/lookup")
		for pb.Next() {
			ip := netmodel.IP(0x0a000000 + uint32(r.Intn(benchPrefixes))<<8 + uint32(r.Intn(256)))
			if _, _, ok := st.LookupIP(ip); !ok {
				b.Fatal("lookup missed inside the mapped range")
			}
		}
	})
}

// BenchmarkFootstoreQueryParallel mixes the three query shapes the way
// a busy daemon would see them.
func BenchmarkFootstoreQueryParallel(b *testing.B) {
	st := benchStore(b)
	latest := st.Latest()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		r := rng.New(11).Fork("footstore/mixed")
		i := 0
		for pb.Next() {
			switch i % 3 {
			case 0:
				ip := netmodel.IP(0x0a000000 + uint32(r.Intn(benchPrefixes))<<8)
				st.LookupIP(ip)
			case 1:
				st.HostingsOf(astopo.ASN(r.Intn(benchASes) + 1))
			default:
				st.Footprint(hg.Google, latest)
			}
			i++
		}
	})
}
