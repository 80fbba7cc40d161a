package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"offnetscope/internal/certmodel"
	"offnetscope/internal/core"
	"offnetscope/internal/corpus"
	"offnetscope/internal/footstore"
	"offnetscope/internal/loadgen"
	"offnetscope/internal/netmodel"
	"offnetscope/internal/obs"
	"offnetscope/internal/offnetserve"
	"offnetscope/internal/runstate"
	"offnetscope/internal/timeline"
)

// offnetdConfig is offnetserve configured with offnetd's flag defaults,
// so in-process handling is the daemon's minus the socket.
var offnetdConfig = offnetserve.Config{
	Workers:         256,
	QueueWait:       time.Second,
	CacheSize:       4096,
	MaxBatch:        offnetserve.DefaultMaxBatch,
	RequestTimeout:  5 * time.Second,
	BreakerFailures: 32,
	BreakerOpenFor:  time.Second,
}

// Offered rates of the traced socket phase's open loops, in requests
// per second. With offnetd on one CPU and the driver on the other, two
// closed-loop connections sustain 12k to 20k requests a second on a
// shared two-core machine; rateLo shows latency with little queueing
// and rateHi shows queueing starting while the driver keeps to its
// schedule.
const (
	rateLo = 4000
	rateHi = 8000
)

const (
	// handleRequests is how many plan requests the replay hands to the
	// in-process handler.
	handleRequests = 20_000
	// lookupRounds is how often the replay times LookupIP over the
	// plan's addresses; footstore.lookup_ns is the median round.
	lookupRounds = 20
)

// studyPath names the spans whose self CPU adds up to what offnetmap
// spends on a study. core.infer and certmodel.verify are left out: they
// time, snapshot by snapshot, work that core.study then repeats as one
// pass.
var studyPath = []string{
	"corpus.decode", "worldsim.rebuild", "astopo.orgs", "bgpsim.mapper",
	"runstate.fingerprint", "core.study", "runstate.save",
	"footstore.build", "footstore.encode", "footstore.save",
}

// runTrace is the -trace 1 run, the same for every workload. Each
// round runs one untraced offnetmap study, then replays the same path
// layer by layer with a span around each call; comparing the two, side
// by side in time, gives trace.gap_frac. Per-layer values are medians
// over the rounds. An offnetd socket phase follows.
func runTrace(ctx context.Context, e *env) (*result, error) {
	res := newResult(e)
	dir := filepath.Join(e.work, "corpus")
	if err := genCorpus(ctx, e.bins, dir, e.seed, e.spec); err != nil {
		return nil, err
	}
	snaps, err := snapshotsOnDisk(dir)
	if err != nil {
		return nil, err
	}
	var (
		passes []map[string]float64
		traces []*tracer
		ref    *mapRun // the first round's offnetmap run
		refCPU []time.Duration
		last   time.Duration
	)
	start := time.Now()
	for round := 0; round == 0 || another(start, last, e.seconds); round++ {
		t0 := time.Now()
		work := filepath.Join(e.work, fmt.Sprintf("round%d", round))
		run, err := runOffnetmap(ctx, e.bins, dir, filepath.Join(work, "map"), nil)
		if err != nil {
			return nil, err
		}
		if run.exitErr != nil {
			return nil, run.exitErr
		}
		if ref == nil {
			ref = run
		}
		vals, tr, err := tracePass(ctx, e, res, dir, snaps, work, run)
		if err != nil {
			return nil, err
		}
		passes = append(passes, vals)
		traces = append(traces, tr)
		refCPU = append(refCPU, run.cpu)
		last = time.Since(t0)
	}
	for name := range passes[0] {
		var xs []float64
		for _, p := range passes {
			xs = append(xs, p[name])
		}
		res.Metrics[name] = median(xs)
	}

	if err := socketPhase(ctx, e, res, ref.storePath); err != nil {
		return nil, err
	}
	res.Metrics["net.overhead_p50_us"] = res.Metrics["net.p50_us"] - res.Metrics["offnetserve.handle_p50_us"]

	printLayers(e.log, traces[len(traces)-1])
	if e.out != "" {
		if err := writeSpans(e, traces, refCPU); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// tracePass replays the study-disk inputs layer by layer, one span per
// call, and derives the per-layer values of one replay. ref is the
// untraced offnetmap run it is compared with: the store the replay
// encodes must be byte-identical to ref's, and the layers' CPU should
// add up to ref's.
func tracePass(ctx context.Context, e *env, res *result, dir string, snaps []timeline.Snapshot, work string, ref *mapRun) (map[string]float64, *tracer, error) {
	tr := newTracer()
	v := make(map[string]float64)
	err := tr.span("pass", func() error {
		d, err := decodeCorpus(dir, snaps, tr)
		if err != nil {
			return err
		}
		p, err := buildPipeline(dir, snaps, tr)
		if err != nil {
			return err
		}
		v["corpus.records"] = float64(d.records)
		verifyChains(tr, p, d, v)
		if err := inferSnapshots(tr, p, d, v); err != nil {
			return err
		}
		sr, err := checkpointedStudy(ctx, tr, p, d, dir, work)
		if err != nil {
			return err
		}
		st, err := storeRoundTrip(tr, p, sr, work, ref.store, res, v)
		if err != nil {
			return err
		}
		return serveInProcess(tr, st, e.seed, res, v)
	})
	if err != nil {
		return nil, nil, err
	}
	self := selfTimes(tr.spans)
	secs := func(name string) float64 { return self[name].Wall.Seconds() }
	for _, m := range []struct{ metric, span string }{
		{"corpus.decode_s", "corpus.decode"},
		{"worldsim.rebuild_s", "worldsim.rebuild"},
		{"astopo.orgs_s", "astopo.orgs"},
		{"bgpsim.mapper_s", "bgpsim.mapper"},
		{"certmodel.verify_s", "certmodel.verify"},
		{"core.infer_s", "core.infer"},
		{"core.study_s", "core.study"},
		{"runstate.save_s", "runstate.save"},
		{"footstore.build_s", "footstore.build"},
		{"footstore.encode_s", "footstore.encode"},
		{"footstore.save_s", "footstore.save"},
		{"footstore.open_s", "footstore.open"},
		{"offnetserve.validate_s", "offnetserve.validate"},
	} {
		v[m.metric] = secs(m.span)
	}
	v["corpus.decode_cpu_s"] = self["corpus.decode"].CPU.Seconds()
	v["core.infer_cpu_s"] = self["core.infer"].CPU.Seconds()
	v["runstate.saves"] = float64(self["runstate.save"].Count)
	var attributed time.Duration
	for _, name := range studyPath {
		attributed += self[name].CPU
	}
	// The gap is unsigned: layers that add up to more than the study are
	// as far off as layers that add up to less.
	v["trace.gap_frac"] = math.Abs(1 - attributed.Seconds()/ref.cpu.Seconds())
	fmt.Fprintf(e.log, "trace: study-path layers used %.3fs of CPU; the untraced offnetmap study %.3fs\n",
		attributed.Seconds(), ref.cpu.Seconds())
	return v, tr, nil
}

// verifyChains times certmodel.Verify over every chain of every month
// and measures how much a verdict cache keyed by chain could save.
func verifyChains(tr *tracer, p *core.Pipeline, d *decoded, v map[string]float64) {
	var chains, valid, distinct int
	for _, s := range d.order {
		snap := d.snaps[s]
		at := snap.ScanTime()
		tr.span("certmodel.verify", func() error {
			for _, cr := range snap.Certs {
				if certmodel.Verify(cr.Chain, at, p.Trust) == nil {
					valid++
				}
			}
			return nil
		})
		// Verdicts depend on the scan time, so a cache is per month.
		seen := make(map[uint64]struct{})
		for _, cr := range snap.Certs {
			seen[chainKey(cr.Chain)] = struct{}{}
		}
		chains += len(snap.Certs)
		distinct += len(seen)
	}
	v["certmodel.chains"] = float64(chains)
	v["certmodel.valid_frac"] = float64(valid) / float64(chains)
	v["certmodel.distinct_chain_frac"] = float64(distinct) / float64(chains)
}

// chainKey is an FNV-1a hash of a chain's certificate fingerprints.
func chainKey(ch certmodel.Chain) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range ch {
		h ^= uint64(c.Fingerprint())
		h *= 1099511628211
	}
	return h
}

// inferSnapshots times InferSnapshotStream month by month and reads the
// pipeline's own funnel timers and counters for the same calls.
func inferSnapshots(tr *tracer, p *core.Pipeline, d *decoded, v map[string]float64) error {
	reg := obs.NewRegistry("trace")
	p.Metrics = reg
	defer func() { p.Metrics = nil }()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, s := range d.order {
		if err := tr.span("core.infer", func() error {
			_, err := p.InferSnapshotStream(corpus.StreamOf(d.snaps[s], 0))
			return err
		}); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&after)
	snap := reg.Snapshot()
	v["core.validate_s"] = float64(snap.Histograms["funnel.validate_ns"].Sum) / 1e9
	v["core.match_s"] = float64(snap.Histograms["funnel.match_ns"].Sum) / 1e9
	v["core.alloc_mb"] = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	cand, conf := snap.Counter("funnel.candidate_ips"), snap.Counter("funnel.confirmed_ips")
	v["core.candidate_ips"] = float64(cand)
	v["core.confirmed_ips"] = float64(conf)
	v["core.confirm_frac"] = float64(conf) / float64(cand)
	return nil
}

// checkpointedStudy runs one jobs-1 study pass with offnetmap's
// checkpointing: each completed month saved through runstate. Persist
// runs on this goroutine, so the save spans nest inside core.study;
// only their wall time is attributable, since the worker infers the
// next month while a save runs.
func checkpointedStudy(ctx context.Context, tr *tracer, p *core.Pipeline, d *decoded, corpusDir, work string) (*core.StudyResult, error) {
	var fp string
	if err := tr.span("runstate.fingerprint", func() (err error) {
		fp, err = runstate.CorpusFingerprint(corpusDir)
		return err
	}); err != nil {
		return nil, err
	}
	ck, err := runstate.Create(filepath.Join(work, "checkpoint"),
		runstate.Manifest{Corpus: fp, Options: runstate.OptionsHash(p.Opts), Vendor: string(vendor)})
	if err != nil {
		return nil, err
	}
	var sr *core.StudyResult
	err = tr.span("core.study", func() (err error) {
		sr, err = studyInMemory(ctx, p, d, core.StudyConfig{
			Jobs: 1,
			Persist: func(s timeline.Snapshot, data *core.CheckpointData) error {
				return tr.span("runstate.save", func() error { return ck.Save(s, data) })
			},
		})
		return err
	})
	return sr, err
}

// storeRoundTrip freezes the study into a store, encodes, saves, opens
// and validates it, as offnetmap -store and then offnetd start-up do.
// The encoded bytes must equal the untraced offnetmap run's store.
func storeRoundTrip(tr *tracer, p *core.Pipeline, sr *core.StudyResult, work, wantStore string, res *result, v map[string]float64) (*footstore.Store, error) {
	var st *footstore.Store
	if err := tr.span("footstore.build", func() (err error) {
		st, err = storeOf(p, sr)
		return err
	}); err != nil {
		return nil, err
	}
	var raw []byte
	tr.span("footstore.encode", func() error { raw = st.Encode(); return nil })
	v["footstore.kb"] = float64(len(raw)) / 1024
	if digest(raw) != wantStore {
		res.fail("traced_store_differs_from_offnetmap", 1)
	}
	path := filepath.Join(work, "offnets.fst")
	if err := tr.span("footstore.save", func() error { return st.Save(path) }); err != nil {
		return nil, err
	}
	var opened *footstore.Store
	if err := tr.span("footstore.open", func() (err error) {
		opened, err = footstore.Open(path)
		return err
	}); err != nil {
		return nil, err
	}
	if err := tr.span("offnetserve.validate", func() error { return offnetserve.SmokeValidate(opened) }); err != nil {
		return nil, err
	}
	return opened, nil
}

// serveInProcess answers the loadgen trace through offnetserve's
// handler with no socket, checking every answer as the socket driver
// does, then times LookupIP over the trace's addresses.
func serveInProcess(tr *tracer, st *footstore.Store, seed int64, res *result, v map[string]float64) error {
	plan, err := loadgen.BuildPlan(st, loadgen.PlanConfig{Seed: seed, Requests: handleRequests})
	if err != nil {
		return err
	}
	srv := offnetserve.New(st, offnetdConfig)
	chk := checker{st: st}
	lat := make([]time.Duration, 0, len(plan.Requests))
	tr.span("offnetserve.handle", func() error {
		for i := range plan.Requests {
			r := &plan.Requests[i]
			req, err := http.NewRequest(r.Method, "http://offnetd"+r.Path, bytes.NewReader(r.Body))
			if err != nil {
				res.fail("unbuildable_request", 1)
				continue
			}
			rec := &recorder{header: make(http.Header)}
			t0 := time.Now()
			srv.ServeHTTP(rec, req)
			lat = append(lat, time.Since(t0))
			res.Attempted++
			if why := chk.check(r, rec.status(), rec.body.Bytes()); why != "" {
				res.fail("in_process_"+why, 1)
			}
		}
		return nil
	})
	us := micros(lat)
	v["offnetserve.handle_p50_us"] = nearestRank(us, 0.50)
	v["offnetserve.handle_p99_us"] = nearestRank(us, 0.99)
	m := srv.Registry().Snapshot()
	hits := m.Counter("cache.hits")
	v["offnetserve.cache_hit_frac"] = float64(hits) / float64(hits+m.Counter("cache.misses")+m.Counter("cache.shared"))

	var ips []netmodel.IP
	for _, r := range plan.Requests {
		if r.Kind == loadgen.KindIPHot || r.Kind == loadgen.KindIPCold {
			if ip, err := netmodel.ParseIP(strings.TrimPrefix(r.Path, "/v1/ip/")); err == nil {
				ips = append(ips, ip)
			}
		}
	}
	var rounds []float64
	var found int
	tr.span("footstore.lookup", func() error {
		for i := 0; i < lookupRounds; i++ {
			t0 := time.Now()
			for _, ip := range ips {
				if _, _, ok := st.LookupIP(ip); ok {
					found++
				}
			}
			rounds = append(rounds, float64(time.Since(t0).Nanoseconds())/float64(len(ips)))
		}
		return nil
	})
	if found == 0 {
		res.fail("no_lookup_hit", 1)
	}
	v["footstore.lookup_ns"] = median(rounds)
	return nil
}

// recorder is a minimal http.ResponseWriter for in-process handling.
type recorder struct {
	header http.Header
	code   int
	body   bytes.Buffer
}

func (r *recorder) Header() http.Header         { return r.header }
func (r *recorder) WriteHeader(code int)        { r.code = code }
func (r *recorder) Write(p []byte) (int, error) { return r.body.Write(p) }

func (r *recorder) status() int {
	if r.code == 0 {
		return http.StatusOK
	}
	return r.code
}

// socketPhase drives offnetd over loopback: a warm-up, an open loop at
// rateLo for latency without queueing, one at rateHi where queueing
// starts, and a closed loop with a SIGHUP every reloadEvery to time how
// soon a reload becomes visible.
func socketPhase(ctx context.Context, e *env, res *result, storePath string) error {
	st, plan, err := servingInputs(storePath, e.seed)
	if err != nil {
		return err
	}
	pl, release, err := placeServing(e.log)
	if err != nil {
		return err
	}
	defer release()
	d, err := startDaemon(ctx, e.bins.offnetd, storePath, pl)
	if err != nil {
		return err
	}
	defer d.stop()
	part := func(share float64) time.Duration { return max(warmup, time.Duration(share*float64(e.seconds))) }
	var next atomic.Int64
	phases := []*phase{closedLoop(ctx, d.addr, plan, st, warmup, &next, nil)}
	cpu0 := selfCPU()
	lo := openLoop(ctx, d.addr, plan, st, rateLo, part(0.3), &next)
	res.Metrics["driver.cpu_s"] = (selfCPU() - cpu0).Seconds()
	hi := openLoop(ctx, d.addr, plan, st, rateHi, part(0.2), &next)
	rl := newReloader(d.cmd.Process.Pid, reloadEvery)
	rel, err := withReloads(rl, func(onGen func(uint64)) *phase {
		return closedLoop(ctx, d.addr, plan, st, part(0.2), &next, onGen)
	})
	if err != nil {
		return err
	}
	phases = append(phases, lo, hi, rel)
	if err := d.stop(); err != nil {
		return err
	}
	for _, ph := range phases {
		res.Attempted += ph.sent
		res.failAll(ph.failures)
	}
	if len(rl.visible) == 0 {
		return fmt.Errorf("no reload became visible in %s", part(0.2))
	}
	lat := micros(lo.lat)
	res.Metrics["net.p50_us"] = nearestRank(lat, 0.50)
	res.Metrics["net.p99_us"] = nearestRank(lat, 0.99)
	res.Metrics["net.p999_us"] = nearestRank(lat, 0.999)
	res.Metrics["net.samples"] = float64(len(lat))
	res.Metrics["net.p99_us_hi"] = nearestRank(micros(hi.lat), 0.99)
	res.Metrics["driver.late_frac"] = float64(lo.late) / float64(lo.sent)
	res.Metrics["offnetserve.reload_visible_ms"] = median(micros(rl.visible)) / 1000
	return nil
}

// printLayers reports each span name's self wall and CPU time in one
// replay, largest CPU first.
func printLayers(w io.Writer, tr *tracer) {
	self := selfTimes(tr.spans)
	names := make([]string, 0, len(self))
	for name := range self {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]].CPU > self[names[j]].CPU })
	fmt.Fprintf(w, "%-22s %6s %12s %12s\n", "span", "calls", "self_wall_s", "self_cpu_s")
	for _, name := range names {
		lt := self[name]
		fmt.Fprintf(w, "%-22s %6d %12.4f %12.4f\n", name, lt.Count, lt.Wall.Seconds(), lt.CPU.Seconds())
	}
}

// writeSpans saves every replay's spans, for reading the trace after
// the run.
func writeSpans(e *env, traces []*tracer, refCPU []time.Duration) error {
	out := struct {
		Workload  string    `json:"workload"`
		Seed      int64     `json:"seed"`
		RefCPUSec []float64 `json:"offnetmap_cpu_s"`
		Passes    [][]span  `json:"passes"`
	}{Workload: e.workload, Seed: e.seed, RefCPUSec: seconds(refCPU)}
	for _, tr := range traces {
		out.Passes = append(out.Passes, tr.spans)
	}
	raw, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(e.out, 0o755); err != nil {
		return err
	}
	path := filepath.Join(e.out, fmt.Sprintf("spans-%s-seed%d.json", e.workload, e.seed))
	fmt.Fprintf(e.log, "wrote %s\n", path)
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
