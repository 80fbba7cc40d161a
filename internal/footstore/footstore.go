// Package footstore is the serving-side artifact of the off-net study:
// an immutable, memory-compact longitudinal footprint store. The §4
// pipeline (internal/core) produces per-snapshot per-hypergiant off-net
// AS sets; footstore freezes them — together with the IP-to-AS prefix
// table of the most recent snapshot — into one queryable object that a
// daemon (cmd/offnetd) can hold in memory and hit from any number of
// goroutines.
//
// Internally the longitudinal footprints are stored as spans: for each
// hypergiant, runs of consecutive present snapshots during which an AS
// stayed in the footprint. Spans answer all three query shapes without
// materialising 31 separate AS sets:
//
//   - Footprint(hg, snapshot): every span covering the snapshot;
//   - HostingsOf(as): the per-hypergiant spans touching the AS;
//   - LookupIP(ip): longest-prefix match through the netmodel trie to
//     the origin AS(es), then HostingsOf.
//
// A Store is built once (Builder or Decode) and never mutated, so the
// entire query path is lock-free and safe for unbounded concurrent
// readers. The on-disk format is documented in serialize.go.
package footstore

import (
	"fmt"
	"sort"

	"offnetscope/internal/astopo"
	"offnetscope/internal/hg"
	"offnetscope/internal/netmodel"
	"offnetscope/internal/timeline"
)

// PrefixSource supplies the prefix-to-origin table IP queries resolve
// through; *bgpsim.IP2AS satisfies it.
type PrefixSource interface {
	Walk(fn func(netmodel.Prefix, []astopo.ASN) bool)
}

// span is one contiguous run of present-snapshot indices (inclusive on
// both ends) during which an AS sat in a hypergiant's footprint.
type span struct {
	as       astopo.ASN
	from, to int32 // indices into Store.snaps
}

// prefixEntry is one row of the IP-to-AS table, kept sorted by
// (address, length) so serialization is deterministic.
type prefixEntry struct {
	prefix netmodel.Prefix
	asns   []astopo.ASN
}

// Hosting is one hypergiant's continuous presence inside an AS.
type Hosting struct {
	HG    hg.ID
	AS    astopo.ASN
	First timeline.Snapshot // first present snapshot of the run
	Last  timeline.Snapshot // last present snapshot of the run
}

// Store is the immutable read side. All accessors are safe for
// concurrent use; none of them takes a lock.
type Store struct {
	snaps    []timeline.Snapshot // present snapshots, strictly increasing
	spans    [][]span            // indexed by hg.ID, sorted by (as, from)
	asIndex  map[astopo.ASN][]Hosting
	prefixes []prefixEntry
	trie     netmodel.Trie[[]astopo.ASN]
}

// Snapshots returns the present snapshots in order.
func (st *Store) Snapshots() []timeline.Snapshot {
	out := make([]timeline.Snapshot, len(st.snaps))
	copy(out, st.snaps)
	return out
}

// Latest returns the most recent snapshot in the store.
func (st *Store) Latest() timeline.Snapshot {
	if len(st.snaps) == 0 {
		return -1
	}
	return st.snaps[len(st.snaps)-1]
}

// SnapshotIndex locates s among the present snapshots.
func (st *Store) SnapshotIndex(s timeline.Snapshot) (int, bool) {
	i := sort.Search(len(st.snaps), func(i int) bool { return st.snaps[i] >= s })
	if i < len(st.snaps) && st.snaps[i] == s {
		return i, true
	}
	return 0, false
}

// Hypergiants returns the hypergiants with at least one span, in ID
// order.
func (st *Store) Hypergiants() []hg.ID {
	var out []hg.ID
	for id, spans := range st.spans {
		if len(spans) > 0 {
			out = append(out, hg.ID(id))
		}
	}
	return out
}

// Footprint returns id's off-net AS set at snapshot s, sorted. The
// second return is false when s is not a present snapshot.
func (st *Store) Footprint(id hg.ID, s timeline.Snapshot) ([]astopo.ASN, bool) {
	idx, ok := st.SnapshotIndex(s)
	if !ok {
		return nil, false
	}
	var out []astopo.ASN
	for _, sp := range st.spansOf(id) {
		if sp.from <= int32(idx) && int32(idx) <= sp.to {
			out = append(out, sp.as)
		}
	}
	return out, true
}

func (st *Store) spansOf(id hg.ID) []span {
	if int(id) < 0 || int(id) >= len(st.spans) {
		return nil
	}
	return st.spans[id]
}

// HostingsOf returns every hypergiant presence run inside as, ordered
// by (hypergiant, first snapshot). The returned slice is shared and
// must not be mutated.
func (st *Store) HostingsOf(as astopo.ASN) []Hosting {
	return st.asIndex[as]
}

// LookupIP resolves ip through the longest-prefix-match table. The
// returned origin slice is shared and must not be mutated; ok is false
// when no prefix covers the address.
func (st *Store) LookupIP(ip netmodel.IP) (p netmodel.Prefix, origins []astopo.ASN, ok bool) {
	return st.trie.LookupPrefix(ip)
}

// WalkPrefixes visits every row of the IP-to-AS table in canonical
// (address, length) order, stopping early when fn returns false. The
// origin slices are shared and must not be mutated. Workload generators
// (internal/loadgen) use this to derive realistic hot-IP populations
// from the store itself; the deterministic order is what makes a seeded
// workload reproducible across runs.
func (st *Store) WalkPrefixes(fn func(netmodel.Prefix, []astopo.ASN) bool) {
	for i := range st.prefixes {
		if !fn(st.prefixes[i].prefix, st.prefixes[i].asns) {
			return
		}
	}
}

// ASes returns every AS hosting at least one hypergiant anywhere in the
// study window, sorted ascending — the deterministic population for
// /v1/as query workloads.
func (st *Store) ASes() []astopo.ASN {
	out := make([]astopo.ASN, 0, len(st.asIndex))
	for as := range st.asIndex {
		out = append(out, as)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Stats summarises the store for logs and /debug/vars.
type Stats struct {
	Snapshots   int
	Hypergiants int
	Spans       int
	ASes        int
	Prefixes    int
}

// Stats computes summary counts.
func (st *Store) Stats() Stats {
	s := Stats{
		Snapshots: len(st.snaps),
		ASes:      len(st.asIndex),
		Prefixes:  len(st.prefixes),
	}
	for _, spans := range st.spans {
		if len(spans) > 0 {
			s.Hypergiants++
			s.Spans += len(spans)
		}
	}
	return s
}

// finalize derives the AS index from the spans; called once at the end
// of Build and Decode, before the store is shared.
func (st *Store) finalize() {
	st.asIndex = make(map[astopo.ASN][]Hosting)
	for id, spans := range st.spans {
		for _, sp := range spans {
			st.asIndex[sp.as] = append(st.asIndex[sp.as], Hosting{
				HG:    hg.ID(id),
				AS:    sp.as,
				First: st.snaps[sp.from],
				Last:  st.snaps[sp.to],
			})
		}
	}
	for _, hs := range st.asIndex {
		sort.Slice(hs, func(i, j int) bool {
			if hs[i].HG != hs[j].HG {
				return hs[i].HG < hs[j].HG
			}
			return hs[i].First < hs[j].First
		})
	}
	for i := range st.prefixes {
		st.trie.Insert(st.prefixes[i].prefix, st.prefixes[i].asns)
	}
}

// Builder accumulates per-snapshot footprints and a prefix table, then
// freezes them into a Store. Snapshots must be added in increasing
// order; the zero value is ready to use.
type Builder struct {
	snaps      []timeline.Snapshot
	footprints []map[hg.ID][]astopo.ASN
	prefixes   []prefixEntry
}

// NewBuilder returns an empty builder.
func NewBuilder() *Builder { return &Builder{} }

// NewBuilderFrom reconstructs a builder holding st's exact contents, so
// a restarted process can keep extending a store it only has the frozen
// form of (the continuous-measurement daemon rebuilds its wave builder
// from the newest committed generation this way). The roundtrip is
// canonical: NewBuilderFrom(st).Build() encodes byte-identically to st.
func NewBuilderFrom(st *Store) *Builder {
	b := NewBuilder()
	ids := st.Hypergiants()
	for _, s := range st.Snapshots() {
		fp := make(map[hg.ID][]astopo.ASN, len(ids))
		for _, id := range ids {
			if set, ok := st.Footprint(id, s); ok && len(set) > 0 {
				fp[id] = set
			}
		}
		if err := b.AddSnapshot(s, fp); err != nil {
			// Unreachable: st's snapshots are strictly increasing and
			// its IDs validated at build time.
			panic(err)
		}
	}
	st.WalkPrefixes(func(p netmodel.Prefix, origins []astopo.ASN) bool {
		b.AddPrefix(p, origins)
		return true
	})
	return b
}

// AddSnapshot records each hypergiant's off-net AS set at s. The sets
// are copied; unsorted input is tolerated.
func (b *Builder) AddSnapshot(s timeline.Snapshot, footprints map[hg.ID][]astopo.ASN) error {
	if !s.Valid() {
		return fmt.Errorf("footstore: invalid snapshot %d", int(s))
	}
	if n := len(b.snaps); n > 0 && b.snaps[n-1] >= s {
		return fmt.Errorf("footstore: snapshot %s not after %s", s, b.snaps[n-1])
	}
	cp := make(map[hg.ID][]astopo.ASN, len(footprints))
	for id, ases := range footprints {
		if int(id) <= int(hg.None) || int(id) > hg.Count {
			return fmt.Errorf("footstore: invalid hypergiant id %d", int(id))
		}
		set := make([]astopo.ASN, len(ases))
		copy(set, ases)
		sort.Slice(set, func(i, j int) bool { return set[i] < set[j] })
		set = dedupASNs(set)
		if len(set) > 0 {
			cp[id] = set
		}
	}
	b.snaps = append(b.snaps, s)
	b.footprints = append(b.footprints, cp)
	return nil
}

// AddPrefix adds one prefix-to-origin row to the IP lookup table.
// Duplicate prefixes keep the last value.
func (b *Builder) AddPrefix(p netmodel.Prefix, origins []astopo.ASN) {
	if len(origins) == 0 {
		return
	}
	cp := make([]astopo.ASN, len(origins))
	copy(cp, origins)
	sort.Slice(cp, func(i, j int) bool { return cp[i] < cp[j] })
	b.prefixes = append(b.prefixes, prefixEntry{prefix: p.Canonical(), asns: dedupASNs(cp)})
}

// AddPrefixes drains a PrefixSource (for example *bgpsim.IP2AS) into
// the lookup table.
func (b *Builder) AddPrefixes(src PrefixSource) {
	src.Walk(func(p netmodel.Prefix, origins []astopo.ASN) bool {
		b.AddPrefix(p, origins)
		return true
	})
}

// Build freezes the accumulated data into an immutable Store.
func (b *Builder) Build() (*Store, error) {
	if len(b.snaps) == 0 {
		return nil, fmt.Errorf("footstore: no snapshots")
	}
	st := &Store{
		snaps: append([]timeline.Snapshot(nil), b.snaps...),
		spans: make([][]span, hg.Count+1),
	}
	// Turn the per-snapshot sets into spans: extend a run while the AS
	// stays present in consecutive present snapshots, else open a new
	// one.
	for id := hg.ID(1); int(id) <= hg.Count; id++ {
		open := make(map[astopo.ASN]int) // AS -> index into st.spans[id]
		for i := range b.snaps {
			for _, as := range b.footprints[i][id] {
				if j, ok := open[as]; ok && st.spans[id][j].to == int32(i-1) {
					st.spans[id][j].to = int32(i)
					continue
				}
				open[as] = len(st.spans[id])
				st.spans[id] = append(st.spans[id], span{as: as, from: int32(i), to: int32(i)})
			}
		}
		sortSpans(st.spans[id])
	}
	st.prefixes = canonicalPrefixes(b.prefixes)
	st.finalize()
	return st, nil
}

// sortSpans orders spans by (AS, from) — the canonical order both the
// query path and the serializer rely on.
func sortSpans(spans []span) {
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].as != spans[j].as {
			return spans[i].as < spans[j].as
		}
		return spans[i].from < spans[j].from
	})
}

// canonicalPrefixes sorts by (address, length) and keeps the last
// occurrence of duplicate prefixes.
func canonicalPrefixes(in []prefixEntry) []prefixEntry {
	out := make([]prefixEntry, len(in))
	copy(out, in)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].prefix.Addr != out[j].prefix.Addr {
			return out[i].prefix.Addr < out[j].prefix.Addr
		}
		return out[i].prefix.Len < out[j].prefix.Len
	})
	dst := 0
	for i := range out {
		if dst > 0 && out[dst-1].prefix == out[i].prefix {
			out[dst-1] = out[i]
			continue
		}
		out[dst] = out[i]
		dst++
	}
	return out[:dst]
}

func dedupASNs(sorted []astopo.ASN) []astopo.ASN {
	dst := 0
	for i, as := range sorted {
		if i > 0 && sorted[i-1] == as {
			continue
		}
		sorted[dst] = as
		dst++
	}
	return sorted[:dst]
}
