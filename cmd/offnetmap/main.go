// Command offnetmap runs the paper's §4 inference pipeline over a corpus
// directory produced by worldgen and prints each hypergiant's off-net
// footprint — one snapshot, or the whole longitudinal series.
//
// Usage:
//
//	offnetmap -corpus ./data [-vendor rapid7] [-snapshot 2021-04] [-certs-only] [-list google]
//	offnetmap -corpus ./data -growth            # Fig-3-style series from disk
//	offnetmap -corpus ./data -growth -store out.fst   # also freeze a queryable store for offnetd
//	offnetmap -corpus ./data -growth -checkpoint ./ck -jobs 4   # parallel, crash-safe
//	offnetmap -corpus ./data -growth -checkpoint ./ck -resume   # continue after a crash
//
// Real vendor corpuses are messy (§5: loss, truncation, uneven
// quality), so reads are tolerant by default: malformed records are
// skipped and accounted per file within the -max-bad budget, and in
// -growth mode a vendor-month that is corrupt beyond salvage is
// dropped — the run completes on the remaining months and marks the
// reduced coverage in the report. Each month is read once: its files do
// not change, so a second read would fail the same way. -tolerant=false
// restores strict fail-on-first-error reads; a strict -growth run names
// the earliest damaged month's first damaged file (certificates, then
// HTTPS headers, then HTTP headers) at any -jobs. The corpus's dataset
// files (worldgen -datasets: as-org.txt and each month's RouteViews and
// RIPE RIS RIBs) are used when present; one that exists but cannot be
// read, or a month with only one collector's RIB, fails its month the
// same way.
//
// Long -growth runs are themselves crash-safe with -checkpoint: every
// completed snapshot is persisted atomically, SIGINT/SIGTERM abandons
// the month in flight at its next record batch and flushes a final
// checkpoint, and -resume picks up where the run stopped — producing
// byte-identical output to an uninterrupted run.
//
// Every read streams its vendor-month through the inference in
// fixed-size record batches, so a month's raw corpus never sits in
// memory at once; what stays resident is the month's validated
// certificate records plus its HTTP(S) header index. Output is
// byte-identical at any -jobs setting.
//
// Exit codes: 0 success; 1 failure; 2 usage error; 3 the -growth run
// completed but with reduced coverage (dropped vendor-months or
// snapshots), so cron/CI can detect silent degradation.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"

	"offnetscope/internal/astopo"
	"offnetscope/internal/bgpsim"
	"offnetscope/internal/core"
	"offnetscope/internal/corpus"
	"offnetscope/internal/footstore"
	"offnetscope/internal/hg"
	"offnetscope/internal/obs"
	"offnetscope/internal/runstate"
	"offnetscope/internal/timeline"
	"offnetscope/internal/worldsim"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("offnetmap: ")
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stdout)
	stop()
	if err != nil && !errors.Is(err, flag.ErrHelp) && !isQuiet(err) {
		log.Print(err)
	}
	os.Exit(exitStatus(err))
}

// Process exit codes, documented in -h output.
const (
	exitOK              = 0
	exitFailure         = 1
	exitUsage           = 2
	exitReducedCoverage = 3
)

// exitError carries a specific process exit code out of run(). quiet
// means the message was already printed (e.g. by the flag package).
type exitError struct {
	code  int
	err   error
	quiet bool
}

func (e *exitError) Error() string { return e.err.Error() }
func (e *exitError) Unwrap() error { return e.err }

func isQuiet(err error) bool {
	var ee *exitError
	return errors.As(err, &ee) && ee.quiet
}

// exitStatus maps run()'s error to the process exit code.
func exitStatus(err error) int {
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return exitOK
	}
	var ee *exitError
	if errors.As(err, &ee) {
		return ee.code
	}
	return exitFailure
}

func usageError(err error) error { return &exitError{code: exitUsage, err: err} }

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("offnetmap", flag.ContinueOnError)
	dir := fs.String("corpus", "", "corpus directory written by worldgen (required)")
	vendor := fs.String("vendor", "rapid7", "corpus vendor to analyse")
	snapLabel := fs.String("snapshot", "2021-04", "snapshot (YYYY-MM)")
	certsOnly := fs.Bool("certs-only", false, "skip header confirmation (§4.3 output)")
	list := fs.String("list", "", "also list the hosting ASes of this hypergiant")
	growth := fs.Bool("growth", false, "run every snapshot on disk and print growth series")
	storePath := fs.String("store", "", "freeze the inferred footprints into a footstore file (serve it with offnetd)")
	tolerant := fs.Bool("tolerant", true, "skip malformed corpus records within -max-bad; in -growth, drop corrupt vendor-months instead of aborting")
	maxBad := fs.Float64("max-bad", 0.05, "per-file error budget: max fraction in [0, 1] of malformed records a tolerant read accepts (0 = zero tolerance)")
	checkpoint := fs.String("checkpoint", "", "with -growth: persist each completed snapshot to this directory (crash-safe)")
	resume := fs.Bool("resume", false, "with -checkpoint: reload intact checkpoints instead of recomputing (manifest must match)")
	jobs := fs.Int("jobs", 1, "with -growth: parallel per-snapshot inference workers (output is identical at any setting)")
	metricsPath := fs.String("metrics", "", "write the run's metrics (pipeline funnel, corpus, checkpoint accounting) to this JSON file")
	verbose := fs.Bool("v", false, "print a human-readable pipeline-funnel summary after the run")
	fs.Usage = func() {
		out := fs.Output()
		fmt.Fprintf(out, "usage: offnetmap -corpus DIR [flags]\n\nflags:\n")
		fs.PrintDefaults()
		fmt.Fprintf(out, "\nexit codes:\n"+
			"  %d  success\n"+
			"  %d  failure\n"+
			"  %d  usage error\n"+
			"  %d  -growth completed with reduced coverage (dropped vendor-months or snapshots)\n",
			exitOK, exitFailure, exitUsage, exitReducedCoverage)
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return &exitError{code: exitUsage, err: err, quiet: true}
	}
	if *dir == "" {
		fs.Usage()
		return usageError(fmt.Errorf("-corpus is required"))
	}
	if *checkpoint != "" && !*growth {
		return usageError(fmt.Errorf("-checkpoint only applies to -growth runs"))
	}
	if *resume && *checkpoint == "" {
		return usageError(fmt.Errorf("-resume requires -checkpoint"))
	}
	if *jobs < 1 {
		return usageError(fmt.Errorf("-jobs must be at least 1"))
	}
	if !(*maxBad >= 0 && *maxBad <= 1) {
		// NaN would otherwise pass every budget comparison and silently
		// accept a fully corrupt month; a negative budget would run with
		// zero tolerance.
		return usageError(fmt.Errorf("-max-bad must be a fraction in [0, 1], got %v", *maxBad))
	}
	// The registry is always live: every counter is a lock-free atomic,
	// so instrumenting unconditionally costs nothing measurable and the
	// -metrics / -v decision reduces to "where to render the snapshot".
	reg := obs.NewRegistry("offnetmap")
	budget := *maxBad
	if budget == 0 {
		// An explicit -max-bad 0 means strictness, not "use the default":
		// the flag's own default carries the 5% budget.
		budget = corpus.NoBudget
	}
	opts := corpus.ReadOptions{Tolerant: *tolerant, MaxBadFraction: budget, Metrics: reg}

	pipeline, maps, err := pipelineFromManifest(*dir, *certsOnly)
	if err != nil {
		return err
	}
	pipeline.Metrics = reg

	if *growth {
		gopt := growthOptions{
			checkpoint: *checkpoint,
			resume:     *resume,
			jobs:       *jobs,
			metrics:    reg,
		}
		sr, droppedMonths, err := runGrowth(ctx, stdout, pipeline, maps, *dir, corpus.Vendor(*vendor), opts, gopt)
		if err != nil {
			return err
		}
		if *storePath != "" {
			snaps := sr.Snapshots()
			if len(snaps) == 0 {
				return fmt.Errorf("no snapshots on disk, nothing to store")
			}
			// A resumed run may have restored the last snapshot from its
			// checkpoint without loading the month's mapper.
			mapper, err := maps.load(snaps[len(snaps)-1])
			if err != nil {
				return err
			}
			st, err := footstore.FromStudy(sr, prefixSource(mapper))
			if err != nil {
				return err
			}
			if err := saveStore(stdout, st, *storePath); err != nil {
				return err
			}
		}
		if err := emitMetrics(stdout, reg, *metricsPath, *verbose); err != nil {
			return err
		}
		if droppedMonths > 0 {
			return &exitError{code: exitReducedCoverage,
				err: fmt.Errorf("run completed with reduced coverage (%d snapshot(s) dropped)", droppedMonths)}
		}
		return nil
	}

	s, ok := timeline.FromLabel(*snapLabel)
	if !ok {
		return fmt.Errorf("invalid snapshot %q", *snapLabel)
	}
	st, err := corpus.OpenStream(*dir, corpus.Vendor(*vendor), s, opts)
	if err != nil {
		return fmt.Errorf("reading corpus: %w", err)
	}
	mapper, err := maps.load(s)
	if err != nil {
		return err
	}
	inf, err := pipeline.InferSnapshotStream(st)
	if err != nil {
		return fmt.Errorf("reading corpus: %w", err)
	}
	reportSkips(stdout, *vendor, s, st.Stats)
	res := inf.Result
	printSnapshot(stdout, res, *vendor, s)
	if *storePath != "" {
		st, err := footstore.FromResult(res, prefixSource(mapper))
		if err != nil {
			return err
		}
		if err := saveStore(stdout, st, *storePath); err != nil {
			return err
		}
	}

	if *list != "" {
		h, ok := hg.ByName(strings.TrimSpace(*list))
		if !ok {
			return fmt.Errorf("unknown hypergiant %q", *list)
		}
		ases := res.PerHG[h.ID].SortedConfirmedASes()
		fmt.Fprintf(stdout, "\n%s hosting ASes (%d):", h.Name, len(ases))
		for i, as := range ases {
			if i%12 == 0 {
				fmt.Fprintln(stdout)
			}
			fmt.Fprintf(stdout, " AS%-6d", as)
		}
		fmt.Fprintln(stdout)
	}
	return emitMetrics(stdout, reg, *metricsPath, *verbose)
}

// emitMetrics renders the run's metrics registry: the full JSON snapshot
// to path (when set) and a human funnel summary to stdout (at -v). The
// funnel.* and corpus.* counters in the JSON are deterministic — byte-
// identical across repeated runs and any -jobs setting — so CI can diff
// the file; only the *_ns timing histograms carry wall time.
func emitMetrics(stdout io.Writer, reg *obs.Registry, path string, verbose bool) error {
	snap := reg.Snapshot()
	if path != "" {
		f, err := os.Create(path)
		if err != nil {
			return fmt.Errorf("writing metrics: %w", err)
		}
		werr := snap.WriteJSON(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return fmt.Errorf("writing metrics: %w", werr)
		}
		fmt.Fprintf(stdout, "wrote metrics %s\n", path)
	}
	if verbose {
		writeFunnel(stdout, snap)
	}
	return nil
}

// writeFunnel prints the paper's §4 attribution funnel — how many
// certificate IPs survived each inference stage — plus the drop and
// corpus-skip breakdowns, so a degraded run names its dominant failure
// class instead of just shrinking silently.
func writeFunnel(w io.Writer, s obs.Snapshot) {
	fmt.Fprintln(w, "pipeline funnel:")
	for _, st := range []struct{ label, counter string }{
		{"snapshots inferred", "funnel.snapshots_inferred"},
		{"cert IPs seen", "funnel.certs_seen"},
		{"valid chains", "funnel.certs_valid"},
		{"HG cert matches", "funnel.hg_cert_matches"},
		{"on-net fingerprint IPs", "funnel.onnet_fingerprint_ips"},
		{"off-net candidate IPs", "funnel.candidate_ips"},
		{"header-confirmed IPs", "funnel.confirmed_ips"},
		{"confirmed off-net ASes", "funnel.confirmed_ases"},
	} {
		fmt.Fprintf(w, "  %-24s %12d\n", st.label, s.Counter(st.counter))
	}
	if line := breakdown(s, "funnel.drop."); line != "" {
		fmt.Fprintf(w, "  drops: %s\n", line)
	}
	if line := breakdown(s, "corpus.skip."); line != "" {
		fmt.Fprintf(w, "  corpus skips: %s (dominant: %s)\n", line, dominant(s, "corpus.skip."))
	}
	if n := s.Counter("funnel.snapshots_dropped"); n > 0 {
		fmt.Fprintf(w, "  snapshots dropped: %d\n", n)
	}
}

// breakdown renders every counter under prefix as "reason=count",
// sorted descending by count (ties by name) so the dominant class
// leads the line.
func breakdown(s obs.Snapshot, prefix string) string {
	type kv struct {
		name string
		n    int64
	}
	var items []kv
	for name, n := range s.Counters {
		if strings.HasPrefix(name, prefix) {
			items = append(items, kv{strings.TrimPrefix(name, prefix), n})
		}
	}
	sort.Slice(items, func(i, j int) bool {
		if items[i].n != items[j].n {
			return items[i].n > items[j].n
		}
		return items[i].name < items[j].name
	})
	parts := make([]string, len(items))
	for i, it := range items {
		parts[i] = fmt.Sprintf("%s=%d", it.name, it.n)
	}
	return strings.Join(parts, " ")
}

// dominant names the largest counter under prefix (the dominant
// corruption class for corpus.skip.*), or "none".
func dominant(s obs.Snapshot, prefix string) string {
	best, bestN := "none", int64(0)
	for name, n := range s.Counters {
		if !strings.HasPrefix(name, prefix) {
			continue
		}
		r := strings.TrimPrefix(name, prefix)
		if n > bestN || (n == bestN && bestN > 0 && r < best) {
			best, bestN = r, n
		}
	}
	return best
}

// pipelineFromManifest rebuilds the matching world datasets (IP-to-AS,
// WHOIS, trust store) from the corpus manifest — the stand-ins for
// RouteViews/RIS, CAIDA, and the Common CA Database. The pipeline's
// Mapper reads the returned mappers' cache, so each month must be
// loaded before it is inferred.
func pipelineFromManifest(dir string, certsOnly bool) (*core.Pipeline, *mappers, error) {
	mfData, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		return nil, nil, fmt.Errorf("reading manifest: %w", err)
	}
	var mf struct {
		Seed  uint64  `json:"seed"`
		Scale float64 `json:"scale"`
	}
	if err := json.Unmarshal(mfData, &mf); err != nil {
		return nil, nil, fmt.Errorf("parsing manifest: %w", err)
	}
	w, err := worldsim.New(worldsim.Config{Seed: mf.Seed, Scale: mf.Scale})
	if err != nil {
		return nil, nil, err
	}
	opts := core.DefaultOptions()
	if certsOnly {
		opts.HeaderMode = core.CertsOnly
	}
	maps := &mappers{world: w, cache: make(map[timeline.Snapshot]core.IPMapper)}
	p := &core.Pipeline{
		Trust:  w.TrustStore(),
		Orgs:   w.Orgs(),
		Mapper: maps.cached,
		Opts:   opts,
	}
	// Prefer on-disk dataset files (worldgen -datasets) over the
	// regenerated world: that is how the paper's pipeline consumed the
	// public WHOIS and BGP corpuses.
	dsDir := filepath.Join(dir, "datasets")
	orgFile, err := os.Open(filepath.Join(dsDir, "as-org.txt"))
	switch {
	case errors.Is(err, fs.ErrNotExist):
		// No dataset files: every month maps through the world.
	case err != nil:
		return nil, nil, err
	default:
		orgs, perr := astopo.ReadOrgs(orgFile)
		orgFile.Close()
		if perr != nil {
			return nil, nil, fmt.Errorf("parsing as-org.txt: %w", perr)
		}
		p.Orgs = orgs
		maps.ribDir = filepath.Join(dsDir, "rib")
	}
	return p, maps, nil
}

// errDataset marks a dataset file that exists but cannot be used.
var errDataset = errors.New("damaged dataset")

// mappers resolves each month's IP-to-AS mapper: merged from the
// month's RouteViews and RIPE RIS RIBs when the corpus ships dataset
// files (§A.1), from the regenerated world otherwise, and for months
// with neither RIB. Mappers are built once per month and cached; the
// cache is shared across -jobs workers.
type mappers struct {
	world  *worldsim.World
	ribDir string // "" when the corpus has no dataset files

	mu    sync.Mutex
	cache map[timeline.Snapshot]core.IPMapper
}

// load returns s's mapper, building it on first use. A RIB that exists
// but cannot be opened or parsed, or a month with only one collector's
// RIB, is an errDataset naming the file. The build is idempotent, so
// two workers racing on one month just build the same mapper twice.
func (m *mappers) load(s timeline.Snapshot) (core.IPMapper, error) {
	m.mu.Lock()
	mp, ok := m.cache[s]
	m.mu.Unlock()
	if ok {
		return mp, nil
	}
	mp, err := m.build(s)
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	m.cache[s] = mp
	m.mu.Unlock()
	return mp, nil
}

func (m *mappers) build(s timeline.Snapshot) (core.IPMapper, error) {
	if m.ribDir == "" {
		return m.world.IP2AS(s), nil
	}
	var ribs []*bgpsim.RIB
	var missing []string
	for _, col := range []bgpsim.Collector{bgpsim.RouteViews, bgpsim.RIPERIS} {
		path := filepath.Join(m.ribDir, fmt.Sprintf("%s_%s.txt", col, s.Label()))
		f, err := os.Open(path)
		if errors.Is(err, fs.ErrNotExist) {
			missing = append(missing, path)
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("%w: %w", errDataset, err)
		}
		rib, err := bgpsim.ReadRIB(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%w: reading %s: %w", errDataset, path, err)
		}
		ribs = append(ribs, rib)
	}
	switch len(ribs) {
	case 0:
		return m.world.IP2AS(s), nil // months outside the dataset range
	case 1:
		return nil, fmt.Errorf("%w: %s is missing, but the month's other collector RIB exists", errDataset, missing[0])
	}
	return bgpsim.BuildIP2AS(s, ribs...), nil
}

// cached is the Pipeline.Mapper hook. It only reads the cache: every
// month is loaded, with its errors reported, before it is inferred, so
// a miss is a bug in the caller.
func (m *mappers) cached(s timeline.Snapshot) core.IPMapper {
	m.mu.Lock()
	defer m.mu.Unlock()
	mp, ok := m.cache[s]
	if !ok {
		panic("offnetmap: " + s.Label() + " inferred before its IP-to-AS mapper was loaded")
	}
	return mp
}

func printSnapshot(stdout io.Writer, res *core.Result, vendor string, s timeline.Snapshot) {
	fmt.Fprintf(stdout, "corpus %s/%s: %d cert IPs in %d ASes (%d valid chains)\n",
		vendor, s.Label(), res.TotalCertIPs, res.TotalCertASes, res.ValidCertIPs)
	fmt.Fprintf(stdout, "%-12s %10s %10s %9s %9s\n", "hypergiant", "candASes", "confASes", "candIPs", "confIPs")

	type row struct {
		id   hg.ID
		conf int
	}
	var rows []row
	for _, h := range hg.All() {
		rows = append(rows, row{h.ID, len(res.PerHG[h.ID].ConfirmedASes)})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].conf > rows[j].conf })
	for _, r := range rows {
		hr := res.PerHG[r.id]
		if len(hr.CandidateASes) == 0 && len(hr.ConfirmedASes) == 0 {
			continue
		}
		fmt.Fprintf(stdout, "%-12s %10d %10d %9d %9d\n",
			r.id, len(hr.CandidateASes), len(hr.ConfirmedASes), hr.CandidateIPs, hr.ConfirmedIPs)
	}
}

// prefixSource exposes a snapshot's IP-to-AS table for the store's
// IP-granularity queries; both mapper implementations are tries with a
// Walk method.
func prefixSource(m core.IPMapper) footstore.PrefixSource {
	src, _ := m.(footstore.PrefixSource)
	return src
}

func saveStore(stdout io.Writer, st *footstore.Store, path string) error {
	if err := st.Save(path); err != nil {
		return err
	}
	stats := st.Stats()
	fmt.Fprintf(stdout, "wrote store %s: %d snapshots, %d hypergiants, %d spans, %d prefixes\n",
		path, stats.Snapshots, stats.Hypergiants, stats.Spans, stats.Prefixes)
	return nil
}

// reportSkips prints one line per corpus file that lost records to a
// tolerant read, so degraded inputs are visible in the run output.
func reportSkips(stdout io.Writer, vendor string, s timeline.Snapshot, stats *corpus.ReadStats) {
	if stats == nil {
		return
	}
	for _, f := range stats.Files {
		if f.Skipped > 0 {
			fmt.Fprintf(stdout, "degraded read %s/%s: %s\n", vendor, s.Label(), f)
		}
	}
}

type growthOptions struct {
	checkpoint string
	resume     bool
	jobs       int
	metrics    *obs.Registry
}

// runGrowth replays the whole on-disk corpus through the study runner:
// per-snapshot inference on a -jobs worker pool, a sequential envelope
// fold, and (with -checkpoint) an atomically persisted checkpoint after
// every completed snapshot. Each month is read once. In tolerant mode a
// vendor-month that fails its read is dropped from the series and the
// reduced coverage reported; in strict mode the run fails with the
// earliest failed month's error. A month whose dataset files are damaged
// counts as corrupt. Returns the study plus the number of dropped
// snapshots.
func runGrowth(ctx context.Context, stdout io.Writer, pipeline *core.Pipeline, maps *mappers, dir string, vendor corpus.Vendor, opts corpus.ReadOptions, gopt growthOptions) (*core.StudyResult, int, error) {
	var ckDir *runstate.Dir
	if gopt.checkpoint != "" {
		fp, err := runstate.CorpusFingerprint(dir)
		if err != nil {
			return nil, 0, err
		}
		m := runstate.Manifest{Corpus: fp, Options: runstate.OptionsHash(pipeline.Opts), Vendor: string(vendor)}
		if gopt.resume {
			ckDir, err = runstate.Resume(gopt.checkpoint, m)
		} else {
			ckDir, err = runstate.Create(gopt.checkpoint, m)
		}
		if err != nil {
			return nil, 0, err
		}
		ckDir.SetMetrics(gopt.metrics)
	}

	// Workers read concurrently; per-snapshot stats are collected here
	// and printed after the run in snapshot order, so the report stays
	// deterministic at any -jobs setting.
	var mu sync.Mutex
	statsBy := make(map[timeline.Snapshot]*corpus.ReadStats)
	// A month's stats are recorded only once all three record streams
	// have completed cleanly, so only months read in full report skips.
	// Each record batch first checks ctx, so a shutdown abandons the
	// month in flight at its next batch.
	source := func(ctx context.Context, s timeline.Snapshot) (*corpus.Stream, error) {
		st, err := corpus.OpenStream(dir, vendor, s, opts)
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				return nil, nil // months the corpus doesn't cover
			}
			return nil, err
		}
		// Only months with corpus data need a mapper.
		if _, err := maps.load(s); err != nil {
			return nil, err
		}
		var pending atomic.Int32
		pending.Store(3)
		finish := func(err error) error {
			if err == nil && pending.Add(-1) == 0 {
				mu.Lock()
				statsBy[s] = st.Stats
				mu.Unlock()
			}
			return err
		}
		certs, https, http := st.Certs, st.HTTPS, st.HTTP
		st.Certs = func(yield func([]corpus.CertRecord) error) error { return finish(certs(checked(ctx, yield))) }
		st.HTTPS = func(yield func([]corpus.HeaderRecord) error) error { return finish(https(checked(ctx, yield))) }
		st.HTTP = func(yield func([]corpus.HeaderRecord) error) error { return finish(http(checked(ctx, yield))) }
		return st, nil
	}

	// The fold reports failed months in snapshot order, each with the
	// engine's certs → https → http precedence, so strict mode fails with
	// the earliest damaged file whatever -jobs is.
	var dropped []string
	var strictErr error
	cfg := core.StudyConfig{
		Jobs: gopt.jobs,
		OnDrop: func(s timeline.Snapshot, err error) {
			if !opts.Tolerant {
				if strictErr == nil {
					strictErr = fmt.Errorf("reading corpus %s/%s: %w", vendor, s.Label(), err)
				}
				return
			}
			fmt.Fprintf(stdout, "warning: dropping corpus %s/%s: %v\n", vendor, s.Label(), err)
			dropped = append(dropped, s.Label())
		},
	}
	restoredN := 0
	if ckDir != nil {
		cfg.Restore = func(s timeline.Snapshot) *core.CheckpointData {
			ck := ckDir.Load(s)
			if ck != nil {
				restoredN++
			}
			return ck
		}
		cfg.Persist = ckDir.Save
	}

	sr, runErr := pipeline.RunStudyStream(ctx, source, cfg)
	if restoredN > 0 {
		fmt.Fprintf(stdout, "resume: reused %d checkpointed snapshot(s) from %s\n", restoredN, gopt.checkpoint)
	}
	if strictErr != nil {
		return nil, 0, strictErr
	}
	for _, s := range timeline.All() {
		reportSkips(stdout, string(vendor), s, statsBy[s])
	}
	if runErr != nil {
		if ctx.Err() != nil {
			if ckDir != nil {
				return nil, 0, fmt.Errorf("interrupted; completed snapshots are checkpointed in %s — rerun with -resume to continue", gopt.checkpoint)
			}
			return nil, 0, fmt.Errorf("interrupted (no -checkpoint directory, progress lost)")
		}
		return nil, 0, runErr
	}

	fmt.Fprintf(stdout, "%-8s %7s %9s %7s %8s %8s %8s\n",
		"snap", "Google", "Facebook", "Akamai", "NF-init", "NF-exp", "NF-http")
	g := sr.ConfirmedSeries(hg.Google)
	f := sr.ConfirmedSeries(hg.Facebook)
	a := sr.ConfirmedSeries(hg.Akamai)
	for _, s := range timeline.All() {
		if sr.Results[s] == nil {
			continue
		}
		fmt.Fprintf(stdout, "%-8s %7d %9d %7d %8d %8d %8d\n",
			s.Label(), g[s], f[s], a[s],
			sr.NetflixInitial[s], sr.NetflixWithExpired[s], sr.NetflixNonTLS[s])
	}
	if len(dropped) > 0 {
		fmt.Fprintf(stdout, "reduced coverage: %d month(s) dropped for corruption: %s\n",
			len(dropped), strings.Join(dropped, " "))
	}
	return sr, len(dropped), nil
}

// checked wraps a record-batch consumer so each batch first returns
// ctx's error once ctx is done.
func checked[T any](ctx context.Context, yield func([]T) error) func([]T) error {
	return func(batch []T) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		return yield(batch)
	}
}
