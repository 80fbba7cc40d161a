package offnetscope

// One benchmark per table and figure in the paper's evaluation, plus the
// §5 validation experiments, the ablations from DESIGN.md, and the raw
// pipeline/live-scan costs. The longitudinal study is executed once and
// cached inside the shared environment (exactly like cmd/experiments);
// BenchmarkStudyRapid7 measures a full uncached pass.

import (
	"context"
	"sync"
	"testing"
	"time"

	"offnetscope/internal/analysis"
	"offnetscope/internal/core"
	"offnetscope/internal/corpus"
	"offnetscope/internal/hg"
	"offnetscope/internal/probe"
	"offnetscope/internal/scanners"
	"offnetscope/internal/servefarm"
	"offnetscope/internal/timeline"
	"offnetscope/internal/worldsim"
)

var (
	benchOnce sync.Once
	benchEnv  *analysis.Env
	benchSnap *corpus.Snapshot
)

func getEnv(b *testing.B) *analysis.Env {
	b.Helper()
	benchOnce.Do(func() {
		e, err := analysis.NewEnv(worldsim.Config{Seed: 1, Scale: 0.02})
		if err != nil {
			panic(err)
		}
		benchEnv = e
		benchSnap = e.Scan(corpus.Rapid7, analysis.LastSnapshot())
		// Warm the cached Rapid7 and Censys studies so per-figure
		// benchmarks measure the analysis computation itself.
		e.Study(corpus.Rapid7)
		e.Study(corpus.Censys)
	})
	return benchEnv
}

func benchExperiment(b *testing.B, run func(*analysis.Env) analysis.Renderer) {
	e := getEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := run(e).Render(); len(out) == 0 {
			b.Fatal("empty experiment output")
		}
	}
}

func BenchmarkTable2ScanCorpusStats(b *testing.B) {
	benchExperiment(b, func(e *analysis.Env) analysis.Renderer { return analysis.Table2(e) })
}

func BenchmarkTable3HypergiantFootprints(b *testing.B) {
	benchExperiment(b, func(e *analysis.Env) analysis.Renderer { return analysis.Table3(e) })
}

func BenchmarkFig2IPTimeline(b *testing.B) {
	benchExperiment(b, func(e *analysis.Env) analysis.Renderer { return analysis.Fig2(e) })
}

func BenchmarkFig3FootprintGrowth(b *testing.B) {
	benchExperiment(b, func(e *analysis.Env) analysis.Renderer { return analysis.Fig3(e) })
}

func BenchmarkFig4DatasetComparison(b *testing.B) {
	benchExperiment(b, func(e *analysis.Env) analysis.Renderer { return analysis.Fig4(e) })
}

func BenchmarkFig5ConeCategories(b *testing.B) {
	benchExperiment(b, func(e *analysis.Env) analysis.Renderer { return analysis.Fig5(e) })
}

func BenchmarkFig6RegionalGrowth(b *testing.B) {
	benchExperiment(b, func(e *analysis.Env) analysis.Renderer { return analysis.Fig6(e) })
}

func BenchmarkFig7PopulationCoverage(b *testing.B) {
	benchExperiment(b, func(e *analysis.Env) analysis.Renderer { return analysis.Fig7(e) })
}

func BenchmarkFig8ConeCoverage(b *testing.B) {
	benchExperiment(b, func(e *analysis.Env) analysis.Renderer { return analysis.Fig8(e) })
}

func BenchmarkFig9FacebookCoverage(b *testing.B) {
	benchExperiment(b, func(e *analysis.Env) analysis.Renderer { return analysis.Fig9(e) })
}

func BenchmarkFig10HostingOverlap(b *testing.B) {
	benchExperiment(b, func(e *analysis.Env) analysis.Renderer { return analysis.Fig10(e) })
}

func BenchmarkFig11CertGroups(b *testing.B) {
	benchExperiment(b, func(e *analysis.Env) analysis.Renderer { return analysis.Fig11(e) })
}

func BenchmarkFig12ConeCoverageOthers(b *testing.B) {
	benchExperiment(b, func(e *analysis.Env) analysis.Renderer { return analysis.Fig12(e) })
}

func BenchmarkFig13RegionTypeGrowth(b *testing.B) {
	benchExperiment(b, func(e *analysis.Env) analysis.Renderer { return analysis.Fig13(e) })
}

func BenchmarkFig14Willingness(b *testing.B) {
	benchExperiment(b, func(e *analysis.Env) analysis.Renderer { return analysis.Fig14(e) })
}

func BenchmarkValidationCrossDomain(b *testing.B) {
	benchExperiment(b, func(e *analysis.Env) analysis.Renderer { return analysis.ValCrossDomain(e) })
}

func BenchmarkValidationSample(b *testing.B) {
	benchExperiment(b, func(e *analysis.Env) analysis.Renderer { return analysis.ValSample(e) })
}

func BenchmarkValidationGroundTruth(b *testing.B) {
	benchExperiment(b, func(e *analysis.Env) analysis.Renderer { return analysis.ValGroundTruth(e) })
}

func BenchmarkValidationPriorStudies(b *testing.B) {
	benchExperiment(b, func(e *analysis.Env) analysis.Renderer { return analysis.ValPrior(e) })
}

// --- pipeline-level costs ---

// BenchmarkPipelineSnapshot measures one full §4 inference pass over one
// corpus snapshot (the unit of work behind every figure).
func BenchmarkPipelineSnapshot(b *testing.B) {
	e := getEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := e.Pipeline.Run(benchSnap)
		if len(res.PerHG) != hg.Count {
			b.Fatal("bad result")
		}
	}
}

// BenchmarkStudyRapid7 measures a full uncached 31-snapshot longitudinal
// study including scanning.
func BenchmarkStudyRapid7(b *testing.B) {
	e := getEnv(b)
	profile := scanners.Rapid7Profile()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sr := e.Pipeline.RunStudy(func(s timeline.Snapshot) *corpus.Snapshot {
			return scanners.Scan(e.World, profile, s)
		})
		if sr.ConfirmedSeries(hg.Google)[30] == 0 {
			b.Fatal("empty study")
		}
	}
}

// BenchmarkScanSnapshot measures generating one vendor corpus snapshot.
func BenchmarkScanSnapshot(b *testing.B) {
	e := getEnv(b)
	profile := scanners.Rapid7Profile()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap := scanners.Scan(e.World, profile, analysis.LastSnapshot())
		if len(snap.Certs) == 0 {
			b.Fatal("empty scan")
		}
	}
}

// --- ablations (DESIGN.md) ---

func benchAblation(b *testing.B, opts core.Options) {
	e := getEnv(b)
	p := *e.Pipeline
	p.Opts = opts
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := p.Run(benchSnap)
		if res.TotalCertIPs == 0 {
			b.Fatal("bad result")
		}
	}
}

func BenchmarkAblationNoDNSNameFilter(b *testing.B) {
	benchAblation(b, core.Options{HeaderMode: core.HeadersEither, DisableDNSNameFilter: true})
}

func BenchmarkAblationNoHeaderConfirm(b *testing.B) {
	benchAblation(b, core.Options{HeaderMode: core.CertsOnly})
}

func BenchmarkAblationNoChainValidation(b *testing.B) {
	benchAblation(b, core.Options{HeaderMode: core.HeadersEither, DisableChainValidation: true})
}

func BenchmarkAblationNoStabilityFilter(b *testing.B) {
	// The IP-to-AS stability filter lives below the pipeline; measure
	// the lookup-table build with hijack-noise retained by comparing a
	// fresh monthly build per iteration.
	e := getEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := e.World.IP2AS(timeline.Snapshot(i % timeline.Count()))
		if m.Len() == 0 {
			b.Fatal("empty table")
		}
	}
}

// --- live network path ---

// BenchmarkLiveScanPipeline measures real TLS certificate sweeps against
// the loopback farm (the certigo role).
func BenchmarkLiveScanPipeline(b *testing.B) {
	farm, err := servefarm.Start([]servefarm.Spec{
		{Name: "a", Organization: "Google LLC", DNSNames: []string{"*.google.com"},
			Headers: []hg.Header{{Name: "Server", Value: "gws"}}},
		{Name: "b", Organization: "Netflix, Inc.", DNSNames: []string{"*.nflxvideo.net"},
			Headers: []hg.Header{{Name: "Server", Value: "nginx"}}},
		{Name: "c", Organization: "Acme", DNSNames: []string{"www.acme.example"},
			Headers: []hg.Header{{Name: "Server", Value: "nginx"}}},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer farm.Close()
	scanner := probe.New(probe.Config{Concurrency: 8, Timeout: 2 * time.Second})
	defer scanner.Close()
	addrs := farm.TLSAddrs()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results := scanner.FetchCerts(ctx, addrs)
		for _, r := range results {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
		}
	}
}

func BenchmarkA3CertCharacteristics(b *testing.B) {
	benchExperiment(b, func(e *analysis.Env) analysis.Renderer { return analysis.A3Certs(e) })
}

func BenchmarkHideAndSeek(b *testing.B) {
	benchExperiment(b, func(e *analysis.Env) analysis.Renderer { return analysis.HideSeek(e) })
}

func BenchmarkV6Gap(b *testing.B) {
	benchExperiment(b, func(e *analysis.Env) analysis.Renderer { return analysis.V6Gap(e) })
}

func BenchmarkMethodsComparison(b *testing.B) {
	benchExperiment(b, func(e *analysis.Env) analysis.Renderer { return analysis.Methods(e) })
}
