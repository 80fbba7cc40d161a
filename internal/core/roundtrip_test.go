package core

import (
	"reflect"
	"testing"

	"offnetscope/internal/corpus"
	"offnetscope/internal/hg"
	"offnetscope/internal/scanners"
	"offnetscope/internal/timeline"
)

// TestPipelineOverPersistedCorpus is the integration check behind
// cmd/worldgen + cmd/offnetmap: a scan written to disk and inferred
// from the read offnetmap makes — corpus.OpenStream, whose header reads
// build the keyword IPs' lists alone — must give the whole
// SnapshotInference the in-memory stream gives. It checks 2021-04 and
// 2018-04, when Netflix off-nets answered over plain HTTP (§6.2), so
// the HTTP-only set and the Netflix lookups are not empty.
func TestPipelineOverPersistedCorpus(t *testing.T) {
	p := testPipeline(DefaultOptions())
	for _, label := range []string{"2018-04", lastSnap.Label()} {
		s, _ := timeline.FromLabel(label)
		snap := rapid7At(t, s)
		root := t.TempDir()
		if err := corpus.Write(root, snap); err != nil {
			t.Fatal(err)
		}
		st, err := corpus.OpenStream(root, corpus.Rapid7, s, corpus.ReadOptions{})
		if err != nil {
			t.Fatal(err)
		}
		fromDisk, err := p.InferSnapshotStream(st)
		if err != nil {
			t.Fatal(err)
		}
		direct, err := p.InferSnapshotStream(corpus.StreamOf(snap, 0))
		if err != nil {
			t.Fatal(err)
		}
		if st.HeaderIPs == nil {
			t.Fatalf("%s: the disk read built every header list", label)
		}
		if got, want := resultDigest(t, fromDisk.Result), resultDigest(t, direct.Result); got != want {
			t.Errorf("%s: Result digest %s from disk, %s in memory", label, got, want)
		}
		if direct.HTTPOnlyIPs.Len() == 0 || len(direct.NetflixLookups) == 0 {
			t.Fatalf("%s: %d HTTP-only IPs, %d Netflix lookups; want some of each", label, direct.HTTPOnlyIPs.Len(), len(direct.NetflixLookups))
		}
		if !sameHTTPOnly(fromDisk.HTTPOnlyIPs, direct.HTTPOnlyIPs, snap) {
			t.Errorf("%s: %d HTTP-only IPs from disk, %d in memory, or the two disagree on an HTTP IP of the month", label, fromDisk.HTTPOnlyIPs.Len(), direct.HTTPOnlyIPs.Len())
		}
		if !reflect.DeepEqual(fromDisk.NetflixLookups, direct.NetflixLookups) {
			t.Errorf("%s: Netflix lookups differ:\nfrom disk %v\nin memory %v", label, fromDisk.NetflixLookups, direct.NetflixLookups)
		}
	}
}

// TestCertigoCorpusCertsOnly checks the headerless corpus path end to
// end: a pure TLS scan still yields the certificate-level footprints.
func TestCertigoCorpusCertsOnly(t *testing.T) {
	snap := scanners.Scan(testWorld, scanners.CertigoProfile(), 24)
	if snap == nil {
		t.Fatal("no certigo data at 2019-10")
	}
	if len(snap.HTTP)+len(snap.HTTPS) != 0 {
		t.Fatal("certigo must not carry headers")
	}
	res := testPipeline(Options{HeaderMode: CertsOnly}).Run(snap)
	for _, id := range hg.Top4() {
		if len(res.PerHG[id].CandidateASes) == 0 {
			t.Errorf("%v has no candidates in the certigo corpus", id)
		}
	}
	// With header confirmation requested, a headerless corpus confirms
	// nothing — the mode matters.
	strict := testPipeline(Options{HeaderMode: HeadersEither}).Run(snap)
	for _, id := range hg.Top4() {
		if n := len(strict.PerHG[id].ConfirmedASes); n != 0 {
			t.Errorf("%v: %d ASes confirmed without any header corpus", id, n)
		}
	}
}
