package footstore

import (
	"bytes"
	"path/filepath"
	"reflect"
	"testing"

	"offnetscope/internal/astopo"
	"offnetscope/internal/core"
	"offnetscope/internal/hg"
	"offnetscope/internal/netmodel"
	"offnetscope/internal/timeline"
)

// fakePrefixes satisfies PrefixSource for tests.
type fakePrefixes []prefixEntry

func (f fakePrefixes) Walk(fn func(netmodel.Prefix, []astopo.ASN) bool) {
	for _, e := range f {
		if !fn(e.prefix, e.asns) {
			return
		}
	}
}

// buildTestStore covers the interesting shapes: an AS that stays, one
// that leaves, one that leaves and rejoins (two spans), a MOAS prefix,
// and two hypergiants sharing an AS.
func buildTestStore(t testing.TB) *Store {
	t.Helper()
	b := NewBuilder()
	if err := b.AddSnapshot(10, map[hg.ID][]astopo.ASN{
		hg.Google:  {100, 200, 300},
		hg.Netflix: {200},
	}); err != nil {
		t.Fatal(err)
	}
	if err := b.AddSnapshot(12, map[hg.ID][]astopo.ASN{
		hg.Google:  {100, 300},
		hg.Netflix: {200, 400},
	}); err != nil {
		t.Fatal(err)
	}
	if err := b.AddSnapshot(13, map[hg.ID][]astopo.ASN{
		hg.Google:  {100, 200},
		hg.Netflix: {200, 400},
	}); err != nil {
		t.Fatal(err)
	}
	b.AddPrefix(netmodel.MustParsePrefix("10.1.0.0/16"), []astopo.ASN{100})
	b.AddPrefix(netmodel.MustParsePrefix("10.1.2.0/24"), []astopo.ASN{200})
	b.AddPrefix(netmodel.MustParsePrefix("10.2.0.0/16"), []astopo.ASN{300, 400}) // MOAS
	st, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestStoreQueries(t *testing.T) {
	st := buildTestStore(t)

	want := []timeline.Snapshot{10, 12, 13}
	if got := st.Snapshots(); !reflect.DeepEqual(got, want) {
		t.Errorf("Snapshots() = %v, want %v", got, want)
	}
	if st.Latest() != 13 {
		t.Errorf("Latest() = %v, want 13", st.Latest())
	}
	if got := st.Hypergiants(); !reflect.DeepEqual(got, []hg.ID{hg.Google, hg.Netflix}) {
		t.Errorf("Hypergiants() = %v", got)
	}

	fp, ok := st.Footprint(hg.Google, 12)
	if !ok || !reflect.DeepEqual(fp, []astopo.ASN{100, 300}) {
		t.Errorf("Footprint(google, 12) = %v, %v", fp, ok)
	}
	// AS 200 left Google's footprint at 12 and rejoined at 13: two spans.
	fp, ok = st.Footprint(hg.Google, 13)
	if !ok || !reflect.DeepEqual(fp, []astopo.ASN{100, 200}) {
		t.Errorf("Footprint(google, 13) = %v, %v", fp, ok)
	}
	if _, ok := st.Footprint(hg.Google, 11); ok {
		t.Error("Footprint at absent snapshot should report !ok")
	}
	if fp, _ := st.Footprint(hg.Netflix, 13); len(fp) != 2 {
		t.Errorf("Footprint(netflix, 13) = %v, want 2 ASes", fp)
	}
	if fp, ok := st.Footprint(hg.Akamai, 13); !ok || len(fp) != 0 {
		t.Errorf("Footprint(akamai, 13) = %v, %v, want none", fp, ok)
	}

	hostings := st.HostingsOf(200)
	wantHostings := []Hosting{
		{HG: hg.Google, AS: 200, First: 10, Last: 10},
		{HG: hg.Google, AS: 200, First: 13, Last: 13},
		{HG: hg.Netflix, AS: 200, First: 10, Last: 13},
	}
	if !reflect.DeepEqual(hostings, wantHostings) {
		t.Errorf("HostingsOf(200) = %+v, want %+v", hostings, wantHostings)
	}
	if st.HostingsOf(999) != nil {
		t.Error("HostingsOf(unknown) should be nil")
	}

	// LPM: /24 beats /16.
	p, origins, ok := st.LookupIP(netmodel.MustParseIP("10.1.2.9"))
	if !ok || p.String() != "10.1.2.0/24" || !reflect.DeepEqual(origins, []astopo.ASN{200}) {
		t.Errorf("LookupIP = %v %v %v", p, origins, ok)
	}
	_, origins, ok = st.LookupIP(netmodel.MustParseIP("10.2.200.1"))
	if !ok || !reflect.DeepEqual(origins, []astopo.ASN{300, 400}) {
		t.Errorf("MOAS LookupIP = %v %v", origins, ok)
	}
	if _, _, ok := st.LookupIP(netmodel.MustParseIP("192.0.2.1")); ok {
		t.Error("unmapped IP should report !ok")
	}

	stats := st.Stats()
	if stats.Snapshots != 3 || stats.Hypergiants != 2 || stats.Prefixes != 3 {
		t.Errorf("Stats() = %+v", stats)
	}
	// Google: 100 (1 span), 200 (2 spans), 300 (1 span); Netflix: 200,
	// 400 → 6 spans over 4 distinct ASes.
	if stats.Spans != 6 || stats.ASes != 4 {
		t.Errorf("Stats() spans/ASes = %+v", stats)
	}
}

func TestBuilderErrors(t *testing.T) {
	b := NewBuilder()
	if _, err := b.Build(); err == nil {
		t.Error("empty build should fail")
	}
	if err := b.AddSnapshot(timeline.Snapshot(timeline.Count()), nil); err == nil {
		t.Error("out-of-range snapshot should fail")
	}
	if err := b.AddSnapshot(5, nil); err != nil {
		t.Fatal(err)
	}
	if err := b.AddSnapshot(5, nil); err == nil {
		t.Error("non-increasing snapshot should fail")
	}
	if err := b.AddSnapshot(6, map[hg.ID][]astopo.ASN{hg.None: {1}}); err == nil {
		t.Error("invalid hypergiant id should fail")
	}
}

// TestRoundTrip is the acceptance property: build → write → read →
// re-write must be byte-identical, and the decoded store must answer
// queries identically.
func TestRoundTrip(t *testing.T) {
	st := buildTestStore(t)
	enc := st.Encode()

	st2, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, st2.Encode()) {
		t.Error("re-encoding a decoded store is not byte-identical")
	}
	if !reflect.DeepEqual(st.snaps, st2.snaps) || !reflect.DeepEqual(st.spans, st2.spans) {
		t.Error("decoded store differs from original")
	}
	fp1, _ := st.Footprint(hg.Google, 13)
	fp2, _ := st2.Footprint(hg.Google, 13)
	if !reflect.DeepEqual(fp1, fp2) {
		t.Errorf("footprints diverge after round trip: %v vs %v", fp1, fp2)
	}

	path := filepath.Join(t.TempDir(), "store.fst")
	if err := st.Save(path); err != nil {
		t.Fatal(err)
	}
	st3, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, st3.Encode()) {
		t.Error("Save/Open round trip is not byte-identical")
	}
}

func TestDecodeRejectsCorruptInput(t *testing.T) {
	valid := buildTestStore(t).Encode()

	if _, err := Decode(nil); err == nil {
		t.Error("empty input should fail")
	}
	if _, err := Decode([]byte("not a footstore file")); err == nil {
		t.Error("bad magic should fail")
	}
	for cut := 1; cut < len(valid); cut += 7 {
		if _, err := Decode(valid[:cut]); err == nil {
			t.Errorf("truncation at %d should fail", cut)
		}
	}
	for i := len(magic); i < len(valid); i += 11 {
		corrupt := append([]byte(nil), valid...)
		corrupt[i] ^= 0x40
		if _, err := Decode(corrupt); err == nil {
			t.Errorf("bit flip at %d should fail the checksum", i)
		}
	}
	trailing := append(append([]byte(nil), valid...), 0)
	if _, err := Decode(trailing); err == nil {
		t.Error("trailing bytes should fail")
	}
}

func TestFromStudyAndResult(t *testing.T) {
	mkResult := func(s timeline.Snapshot, google []astopo.ASN) *core.Result {
		confirmed := make(map[astopo.ASN]struct{}, len(google))
		for _, as := range google {
			confirmed[as] = struct{}{}
		}
		return &core.Result{
			Snapshot: s,
			PerHG: map[hg.ID]*core.HGResult{
				hg.Google: {HG: hg.Google, ConfirmedASes: confirmed},
				hg.Akamai: {HG: hg.Akamai, ConfirmedASes: map[astopo.ASN]struct{}{}},
			},
		}
	}
	sr := &core.StudyResult{Results: make([]*core.Result, timeline.Count())}
	sr.Results[3] = mkResult(3, []astopo.ASN{10, 20})
	sr.Results[7] = mkResult(7, []astopo.ASN{10, 30})

	prefixes := fakePrefixes{{prefix: netmodel.MustParsePrefix("10.0.0.0/8"), asns: []astopo.ASN{10}}}
	st, err := FromStudy(sr, prefixes)
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Snapshots(); !reflect.DeepEqual(got, []timeline.Snapshot{3, 7}) {
		t.Errorf("Snapshots() = %v", got)
	}
	fp, ok := st.Footprint(hg.Google, 7)
	if !ok || !reflect.DeepEqual(fp, []astopo.ASN{10, 30}) {
		t.Errorf("Footprint = %v, %v", fp, ok)
	}
	if len(st.Hypergiants()) != 1 {
		t.Errorf("empty Akamai footprint should not appear: %v", st.Hypergiants())
	}
	if _, origins, ok := st.LookupIP(netmodel.MustParseIP("10.9.9.9")); !ok || origins[0] != 10 {
		t.Errorf("LookupIP through study store = %v, %v", origins, ok)
	}

	single, err := FromResult(sr.Results[3], nil)
	if err != nil {
		t.Fatal(err)
	}
	if fp, _ := single.Footprint(hg.Google, 3); single.Latest() != 3 || len(fp) != 2 {
		t.Errorf("FromResult store wrong: latest=%v footprint=%v", single.Latest(), fp)
	}
}

// TestWalkPrefixesAndASes covers the accessors loadgen derives its
// workload populations from: WalkPrefixes visits the canonical prefix
// table in sorted order (with early stop), and ASes lists every
// hosting AS sorted.
func TestWalkPrefixesAndASes(t *testing.T) {
	st := buildTestStore(t)

	var prefixes []string
	var asnSets [][]astopo.ASN
	st.WalkPrefixes(func(p netmodel.Prefix, asns []astopo.ASN) bool {
		prefixes = append(prefixes, p.String())
		asnSets = append(asnSets, append([]astopo.ASN(nil), asns...))
		return true
	})
	wantPrefixes := []string{"10.1.0.0/16", "10.1.2.0/24", "10.2.0.0/16"}
	if !reflect.DeepEqual(prefixes, wantPrefixes) {
		t.Errorf("WalkPrefixes order = %v, want %v", prefixes, wantPrefixes)
	}
	if !reflect.DeepEqual(asnSets[2], []astopo.ASN{300, 400}) {
		t.Errorf("MOAS origins = %v, want [300 400]", asnSets[2])
	}

	// Early stop: returning false ends the walk.
	visited := 0
	st.WalkPrefixes(func(netmodel.Prefix, []astopo.ASN) bool {
		visited++
		return false
	})
	if visited != 1 {
		t.Errorf("early-stopped walk visited %d prefixes, want 1", visited)
	}

	if got, want := st.ASes(), []astopo.ASN{100, 200, 300, 400}; !reflect.DeepEqual(got, want) {
		t.Errorf("ASes() = %v, want %v", got, want)
	}
}
