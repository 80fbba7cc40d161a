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
// gunzip, NDJSON decode, string and intermediate interning.
func BenchmarkCorpusDecode(b *testing.B) {
	snap := benchSnapshot(b)
	root := b.TempDir()
	if err := corpus.Write(root, snap); err != nil {
		b.Fatal(err)
	}
	want := len(snap.Certs) + len(snap.HTTPS) + len(snap.HTTP)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := corpus.OpenStream(root, snap.Vendor, snap.Snapshot, corpus.ReadOptions{})
		if err != nil {
			b.Fatal(err)
		}
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

// BenchmarkStageValidate measures §4.1 chain validation + AS annotation
// over one snapshot's certificate records.
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
	res := &Result{InvalidByReason: make(map[string]int), PerHG: make(map[hg.ID]*HGResult)}
	records := make([]record, 0, len(snap.Certs))
	return p.validateBatch(res, make(map[astopo.ASN]struct{}), records, snap.Certs, snap.ScanTime(), p.Mapper(snap.Snapshot))
}

// headerIndex indexes one snapshot's header records by IP, as inference
// does.
func headerIndex(records []corpus.HeaderRecord) map[netmodel.IP][]hg.Header {
	idx := make(map[netmodel.IP][]hg.Header, len(records))
	indexHeaders(idx, records)
	return idx
}

// BenchmarkStageCertMatch measures steps 2–3 — fingerprint learning,
// keyword match, and the dNSName filter — with header confirmation
// voided by empty header indexes.
func BenchmarkStageCertMatch(b *testing.B) {
	p := testPipeline(Options{HeaderMode: CertsOnly})
	snap := benchSnapshot(b)
	records := validateAll(p, snap)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hr := p.runHG(hg.Get(hg.Google), lastSnap, records, nil, nil)
		if hr.CandidateIPs == 0 {
			b.Fatal("no candidates")
		}
	}
}

// BenchmarkStageHeaderConfirm measures §4.5 header confirmation alone:
// both confirmation modes over every previously computed candidate IP.
func BenchmarkStageHeaderConfirm(b *testing.B) {
	p := testPipeline(DefaultOptions())
	snap := benchSnapshot(b)
	records := validateAll(p, snap)
	httpsIdx := headerIndex(snap.HTTPS)
	httpIdx := headerIndex(snap.HTTP)
	h := hg.Get(hg.Google)
	hr := p.runHG(h, lastSnap, records, httpsIdx, httpIdx)
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
