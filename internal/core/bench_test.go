package core

import (
	"context"
	"testing"

	"offnetscope/internal/astopo"
	"offnetscope/internal/corpus"
	"offnetscope/internal/hg"
	"offnetscope/internal/netmodel"
	"offnetscope/internal/scanners"
	"offnetscope/internal/timeline"
)

// Per-stage pipeline benchmarks over the shared seeded world (the same
// corpus the golden suite pins), so a perf regression is attributable
// to one methodology stage rather than "the pipeline got slower".
// `make bench` renders these into BENCH_pipeline.json.

// benchCorpus lazily scans the last snapshot once for all benchmarks.
var benchCorpus *corpus.Snapshot

func benchSnapshot(b *testing.B) *corpus.Snapshot {
	b.Helper()
	if benchCorpus == nil {
		benchCorpus = rapid7At(b, lastSnap)
	}
	return benchCorpus
}

// BenchmarkCorpusDecode measures the disk read every offnetmap study
// starts with: the shared snapshot, written once with corpus.Write, read
// back through corpus.OpenStream with all three files drained —
// gunzip, NDJSON decode and string interning, with each repeated
// intermediate and root recognized by its raw bytes instead of decoded,
// leaf CNs and dNSNames built for keyword organizations alone, and
// header lists built for the snapshot's keyword IPs alone, as
// InferSnapshotStream asks.
func BenchmarkCorpusDecode(b *testing.B) {
	snap := benchSnapshot(b)
	root := b.TempDir()
	if err := corpus.Write(root, snap); err != nil {
		b.Fatal(err)
	}
	keyword := keywordIPs(validateAll(testPipeline(DefaultOptions()), snap))
	want := len(snap.Certs) + len(snap.HTTPS) + len(snap.HTTP)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := corpus.OpenStream(root, snap.Vendor, snap.Snapshot, corpus.ReadOptions{})
		if err != nil {
			b.Fatal(err)
		}
		orgs := make(orgMatcher)
		st.LeafNames = func(org string) bool { return orgs.match(org) != 0 }
		st.HeaderIPs = keyword
		n := 0
		for _, err := range []error{
			st.Certs(func(recs []corpus.CertRecord) error { n += len(recs); return nil }),
			st.HTTPS(func(recs []corpus.HeaderRecord) error { n += len(recs); return nil }),
			st.HTTP(func(recs []corpus.HeaderRecord) error { n += len(recs); return nil }),
		} {
			if err != nil {
				b.Fatal(err)
			}
		}
		if n != want {
			b.Fatalf("decoded %d records, wrote %d", n, want)
		}
	}
	b.ReportMetric(float64(want)*float64(b.N)/b.Elapsed().Seconds(), "records/s")
}

// BenchmarkStageValidate measures §4.1 chain validation, AS annotation
// and keyword classification over one snapshot's certificate records.
func BenchmarkStageValidate(b *testing.B) {
	p := testPipeline(DefaultOptions())
	snap := benchSnapshot(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if recs := validateAll(p, snap); len(recs) == 0 {
			b.Fatal("no validated records")
		}
	}
}

// validateAll runs step 1 over a whole snapshot as one batch.
func validateAll(p *Pipeline, snap *corpus.Snapshot) []record {
	res := newResult(snap)
	return p.validateBatch(res, &netmodel.Set[astopo.ASN]{}, make(orgMatcher), nil, snap.Certs, snap.ScanTime(), p.Mapper(snap.Snapshot))
}

// matchAll runs steps 2–5 for every hypergiant over validated records.
func matchAll(p *Pipeline, snap *corpus.Snapshot, records []record, httpsIdx, httpIdx map[netmodel.IP][]hg.Header) *Result {
	res := newResult(snap)
	p.matchAndCount(res, records, httpsIdx, httpIdx)
	return res
}

func newResult(snap *corpus.Snapshot) *Result {
	return &Result{
		Vendor:          snap.Vendor,
		Snapshot:        snap.Snapshot,
		InvalidByReason: make(map[string]int),
		PerHG:           make(map[hg.ID]*HGResult, hg.Count),
	}
}

// headerIndex indexes one snapshot's header records by IP, keeping only
// the validated keyword records' IPs, as inference does.
func headerIndex(records []record, headers []corpus.HeaderRecord) map[netmodel.IP][]hg.Header {
	idx := make(map[netmodel.IP][]hg.Header)
	indexHeaders(idx, keywordIPs(records), headers)
	return idx
}

// BenchmarkStageCertMatch measures the §4.2–4.5 match for all 23
// hypergiants — on-net ASes, fingerprint learning, the keyword match,
// the dNSName and Cloudflare filters, and the Fig 2 split — with header
// confirmation voided by CertsOnly and empty header indexes.
func BenchmarkStageCertMatch(b *testing.B) {
	p := testPipeline(Options{HeaderMode: CertsOnly})
	snap := benchSnapshot(b)
	records := validateAll(p, snap)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := matchAll(p, snap, records, nil, nil)
		if res.PerHG[hg.Google].CandidateIPs == 0 {
			b.Fatal("no candidates")
		}
	}
}

// BenchmarkStageHeaderConfirm measures §4.5 header confirmation alone:
// both confirmation modes over every Google candidate IP of the full
// match.
func BenchmarkStageHeaderConfirm(b *testing.B) {
	p := testPipeline(DefaultOptions())
	snap := benchSnapshot(b)
	records := validateAll(p, snap)
	httpsIdx := headerIndex(records, snap.HTTPS)
	httpIdx := headerIndex(records, snap.HTTP)
	h := hg.Get(hg.Google)
	hr := matchAll(p, snap, records, httpsIdx, httpIdx).PerHG[h.ID]
	if len(hr.CandidateIPList) == 0 {
		b.Fatal("no candidate IPs to confirm")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		confirmed := 0
		for _, ip := range hr.CandidateIPList {
			if either, _ := p.confirmModes(h, ip, httpsIdx, httpIdx); either {
				confirmed++
			}
		}
		if confirmed == 0 {
			b.Fatal("nothing confirmed")
		}
	}
}

// BenchmarkSnapshotInference measures one full five-step inference pass
// — the unit of work a -jobs worker executes — over an in-memory
// snapshot streamed at the default chunk size.
func BenchmarkSnapshotInference(b *testing.B) {
	p := testPipeline(DefaultOptions())
	snap := benchSnapshot(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := p.Run(snap)
		if res.TotalCertIPs == 0 {
			b.Fatal("empty result")
		}
	}
}

func benchStudy(b *testing.B, jobs int) {
	p := testPipeline(DefaultOptions())
	profile := scanners.Rapid7Profile()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sr, err := p.RunStudyStream(context.Background(), func(_ context.Context, s timeline.Snapshot) (*corpus.Stream, error) {
			return corpus.StreamOf(scanners.Scan(testWorld, profile, s), 0), nil
		}, StudyConfig{Jobs: jobs})
		if err != nil {
			b.Fatal(err)
		}
		if sr.ConfirmedSeries(hg.Google)[lastSnap] == 0 {
			b.Fatal("empty study")
		}
	}
}

// BenchmarkStudyJobs1/Jobs4 measure the full 31-snapshot longitudinal
// study over scanned snapshots, sequentially and on a 4-worker pool —
// the speedup the -jobs flag buys, with identical output per the golden
// suite.
func BenchmarkStudyJobs1(b *testing.B) { benchStudy(b, 1) }
func BenchmarkStudyJobs4(b *testing.B) { benchStudy(b, 4) }

// BenchmarkStudyStreaming is the same 4-worker study over
// scanner-synthesized record batches (scanners.ScanStream) instead of
// scanned snapshots, so no month's corpus is ever materialized. Its
// bytes/op against BenchmarkStudyJobs4 is what skipping the scanned
// snapshot saves; the output is identical per the golden suite.
func BenchmarkStudyStreaming(b *testing.B) {
	p := testPipeline(DefaultOptions())
	profile := scanners.Rapid7Profile()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sr, err := p.RunStudyStream(context.Background(), func(_ context.Context, s timeline.Snapshot) (*corpus.Stream, error) {
			return scanners.ScanStream(testWorld, profile, s, 0), nil
		}, StudyConfig{Jobs: 4})
		if err != nil {
			b.Fatal(err)
		}
		if sr.ConfirmedSeries(hg.Google)[lastSnap] == 0 {
			b.Fatal("empty study")
		}
	}
}
