package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"offnetscope/internal/core"
	"offnetscope/internal/obs"
	"offnetscope/internal/timeline"
)

// setupRepeats is how often a run repeats what setup_s times — the
// pipeline's datasets for the studies, an offnetd start for serving;
// setup_s is the median, so one slow repetition does not move it.
const setupRepeats = 15

// studyInputs is what both study workloads set up: the corpus on disk
// and decoded in memory, the pipeline bound to its datasets, and the
// running study reference, which the caller closes.
type studyInputs struct {
	dir string
	p   *core.Pipeline
	d   *decoded
	ref *studyRef
}

// setUpStudy generates the run's corpus, reports setup_s, and decodes
// the corpus.
func setUpStudy(ctx context.Context, e *env, res *result) (*studyInputs, error) {
	in := &studyInputs{dir: filepath.Join(e.work, "corpus")}
	if err := genCorpus(ctx, e.bins, in.dir, e.seed, e.spec); err != nil {
		return nil, err
	}
	snaps, err := snapshotsOnDisk(in.dir)
	if err != nil {
		return nil, err
	}
	if in.ref, err = startStudyRef(ctx, e.bins); err != nil {
		return nil, err
	}
	if in.p, err = timedSetup(in.ref, res, in.dir, snaps); err == nil {
		in.d, err = decodeCorpus(in.dir, snaps, nil)
	}
	if err != nil {
		in.ref.close()
		return nil, err
	}
	return in, nil
}

// timedSetup builds the pipeline's datasets setupRepeats times, each
// followed by one round of the study reference, reports setup_s, and
// returns the last pipeline.
func timedSetup(ref *studyRef, res *result, dir string, snaps []timeline.Snapshot) (*core.Pipeline, error) {
	var p *core.Pipeline
	st := setupTimes{nominal: refRecordNominal}
	for i := 0; i < setupRepeats; i++ {
		runtime.GC()
		t0 := time.Now()
		var err error
		if p, err = buildPipeline(dir, snaps, nil); err != nil {
			return nil, err
		}
		took := time.Since(t0)
		r, err := ref.run(0)
		if err != nil {
			return nil, err
		}
		st.add(took, r)
	}
	st.report(res)
	return p, nil
}

// another reports whether one more repetition, taking as long as the
// last one did, still ends inside the measuring budget.
func another(start time.Time, last, budget time.Duration) bool {
	return time.Since(start)+last <= budget
}

// funnelCounters keeps the pipeline's funnel.* counters: deterministic
// for a corpus at any jobs setting, so two engines or two passes over
// the same corpus must agree on every one.
func funnelCounters(s obs.Snapshot) map[string]int64 {
	out := make(map[string]int64)
	for name, v := range s.Counters {
		if strings.HasPrefix(name, "funnel.") {
			out[name] = v
		}
	}
	return out
}

// refShare is how long the study reference runs after each infer-mem
// pass, as a share of the pass's wall time: long enough to decode
// thousands of records, short enough to leave most of the budget to the
// passes. The passes take a tenth of a second or two, so pass and
// reference alternate faster than the host's speed changes.
const refShare = 0.25

// calibrate runs the study reference after a study pass and adds the
// pair to cal.
func calibrate(ref *studyRef, cal *calibrated, pass sample) error {
	r, err := ref.run(time.Duration(refShare * float64(pass.wall)))
	if err != nil {
		return err
	}
	cal.add(pass, r)
	return nil
}

// nominalRecords is the corpus size study memory is reported at. A
// study's peak RSS grows in proportion to its corpus — seeds 1–10 give
// 295k–341k records and peaks within 4% of 700 bytes a record for
// infer-mem and 800 for study-disk — so it is scaled to this size to
// compare runs of different seeds.
const nominalRecords = 320_000

func scaledRSS(res *result, rssMB float64, records int64) {
	res.Metrics["peak_rss_mb"] = rssMB * nominalRecords / float64(records)
	res.Raw["peak_rss_mb"] = rssMB
}

// runStudyDisk is the paper's workflow from an on-disk corpus to a
// footprint store: repeated offnetmap -growth processes, each with a
// fresh checkpoint directory. Every pass must print the same growth
// table and write a store byte-identical to the one the in-memory
// engine builds from the same corpus (the cross-engine check).
func runStudyDisk(ctx context.Context, e *env) (*result, error) {
	res := newResult(e)
	in, err := setUpStudy(ctx, e, res)
	if err != nil {
		return nil, err
	}
	defer in.ref.close()
	dir, p, d := in.dir, in.p, in.d
	reg := obs.NewRegistry("reference")
	p.Metrics = reg
	sr, err := studyInMemory(ctx, p, d, core.StudyConfig{Jobs: 2})
	if err != nil {
		return nil, err
	}
	st, err := storeOf(p, sr)
	if err != nil {
		return nil, err
	}
	wantStore := digest(st.Encode())
	wantFunnel := funnelCounters(reg.Snapshot())
	records := d.records

	var cal calibrated
	var rss []float64
	var table string
	var last time.Duration
	start := time.Now()
	for pass := 0; pass == 0 || another(start, last, e.seconds); pass++ {
		t0 := time.Now()
		run, err := runOffnetmap(ctx, e.bins, dir, filepath.Join(e.work, fmt.Sprintf("pass%d", pass)), in.ref)
		if err != nil {
			return nil, err
		}
		res.Attempted += records
		if run.ref.ops == 0 { // the pass ended before its first stop
			if run.ref, err = in.ref.run(studyRefSlice); err != nil {
				return nil, err
			}
		}
		cal.add(sample{wall: run.wall, cpu: run.cpu, ops: records}, run.ref)
		last = time.Since(t0)
		rss = append(rss, float64(run.rssKB)/1024)
		if pass == 0 {
			table = run.table
			res.Digests["growth_table"], res.Digests["store"] = run.table, run.store
		}
		switch {
		case run.exitErr != nil:
			fmt.Fprintln(e.log, run.exitErr)
			res.fail("offnetmap_failed", records)
		case run.store != wantStore:
			res.fail("store_differs_from_in_memory_engine", records)
		case run.table != table:
			res.fail("growth_table_changed", records)
		case !maps.Equal(run.funnel, wantFunnel):
			res.fail("funnel_differs_from_in_memory_engine", records)
		}
	}
	res.checkCommitted(e, records)
	if err := in.ref.close(); err != nil {
		return nil, err
	}
	cal.report(res)
	scaledRSS(res, median(rss), records)
	return res, nil
}

// runInferMem is the streaming engine with the corpus already decoded:
// repeated RunStudyStream passes over corpus.StreamOf, two jobs, the
// pipeline built the way offnetmap builds it. Decode costs nothing
// here; validation and matching are nearly all of the time. Peak RSS is
// taken pass by pass, the high-water mark reset before each, and the
// median reported: the highest of all passes would grow with how many
// passes fit in the run.
func runInferMem(ctx context.Context, e *env) (*result, error) {
	res := newResult(e)
	in, err := setUpStudy(ctx, e, res)
	if err != nil {
		return nil, err
	}
	defer in.ref.close()
	p, d := in.p, in.d

	var cal calibrated
	var rss []float64
	var wantFunnel map[string]int64
	var last time.Duration
	start := time.Now()
	for pass := 0; pass == 0 || another(start, last, e.seconds); pass++ {
		reg := obs.NewRegistry("offnetbench")
		p.Metrics = reg
		runtime.GC()
		if err := resetPeakRSS(); err != nil && pass == 0 {
			fmt.Fprintf(e.log, "peak RSS includes set-up: %v\n", err)
		}
		cpu0, t0 := selfCPU(), time.Now()
		sr, err := studyInMemory(ctx, p, d, core.StudyConfig{Jobs: 2})
		s := sample{wall: time.Since(t0), cpu: selfCPU() - cpu0, ops: d.records}
		res.Attempted += d.records
		hwm, herr := peakRSSKB(0)
		if herr != nil {
			return nil, herr
		}
		rss = append(rss, float64(hwm)/1024)
		if err := calibrate(in.ref, &cal, s); err != nil {
			return nil, err
		}
		last = time.Since(t0)
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			fmt.Fprintln(e.log, err)
			res.fail("study_failed", d.records)
			continue
		}
		st, err := storeOf(p, sr)
		if err != nil {
			return nil, err
		}
		store, funnel := digest(st.Encode()), funnelCounters(reg.Snapshot())
		switch {
		case pass == 0:
			res.Digests["store"], wantFunnel = store, funnel
		case store != res.Digests["store"]:
			res.fail("store_changed_between_passes", d.records)
		case !maps.Equal(funnel, wantFunnel):
			res.fail("funnel_changed_between_passes", d.records)
		}
	}
	res.checkCommitted(e, d.records)
	if err := in.ref.close(); err != nil {
		return nil, err
	}
	cal.report(res)
	scaledRSS(res, median(rss), d.records)
	return res, nil
}

// mapRun is one offnetmap -growth process.
type mapRun struct {
	wall, cpu time.Duration // wall excludes the time it was stopped
	rssKB     int64
	ref       sample // the study reference run while it was stopped
	exitErr   error  // the process ran but failed
	storePath string
	table     string // digest of the printed growth table
	store     string // digest of the store file
	funnel    map[string]int64
}

// runOffnetmap runs offnetmap -growth over corpusDir with a fresh
// checkpoint directory, store and metrics file under dir, interleaved
// with ref unless ref is nil. An error means the process could not run
// at all; a failed run comes back in exitErr.
func runOffnetmap(ctx context.Context, b bins, corpusDir, dir string, ref *studyRef) (*mapRun, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	r := &mapRun{storePath: filepath.Join(dir, "offnets.fst")}
	metricsPath := filepath.Join(dir, "metrics.json")
	cmd := command(ctx, b.offnetmap, "-corpus", corpusDir, "-growth", "-jobs", "2",
		"-checkpoint", filepath.Join(dir, "checkpoint"), "-store", r.storePath, "-metrics", metricsPath)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("offnetmap: %w", err)
	}
	stopped, waitErr, refErr := interleave(cmd, ref, &r.ref)
	r.wall = time.Since(t0) - stopped
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	if refErr != nil {
		return nil, refErr
	}
	r.cpu, r.rssKB = childUsage(cmd.ProcessState)
	if waitErr != nil {
		r.exitErr = fmt.Errorf("offnetmap: %v\n%s", waitErr, stderr.Bytes())
		return r, nil
	}
	table := growthTable(stdout.Bytes())
	if table == nil {
		r.exitErr = errors.New("offnetmap printed no growth table")
		return r, nil
	}
	r.table = digest(table)
	raw, err := os.ReadFile(r.storePath)
	if err != nil {
		return nil, err
	}
	r.store = digest(raw)
	if raw, err = os.ReadFile(metricsPath); err != nil {
		return nil, err
	}
	snap, err := obs.ParseSnapshot(raw)
	if err != nil {
		return nil, fmt.Errorf("parsing offnetmap metrics: %w", err)
	}
	r.funnel = funnelCounters(snap)
	return r, nil
}

// An offnetmap pass takes seconds, and the host's speed changes within
// seconds: a reference run after the pass often sees another host than
// the pass did. So the study reference runs inside the pass: every
// studySlice the process is stopped (SIGSTOP), the reference runs for
// studyRefSlice, and the process is continued.
const (
	studySlice    = 400 * time.Millisecond
	studyRefSlice = 100 * time.Millisecond
)

// interleave waits for cmd, already started, to exit. With ref set, it
// stops the process every studySlice, runs the reference meanwhile,
// adds what the reference measured to *got, and continues the process.
// It returns how long the process was stopped, cmd.Wait's error, and
// the reference's error, after which the process has been killed and
// waited for.
func interleave(cmd *exec.Cmd, ref *studyRef, got *sample) (stopped time.Duration, waitErr, refErr error) {
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	if ref == nil {
		return 0, <-done, nil
	}
	p := cmd.Process
	for {
		select {
		case err := <-done:
			return stopped, err, nil
		case <-time.After(studySlice):
		}
		// A failed signal or a process that never stops has exited; done
		// will say so.
		if p.Signal(syscall.SIGSTOP) != nil {
			continue
		}
		if !waitStopped(p.Pid) {
			p.Signal(syscall.SIGCONT)
			continue
		}
		t := time.Now()
		r, err := ref.run(studyRefSlice)
		p.Signal(syscall.SIGCONT)
		stopped += time.Since(t)
		if err != nil {
			p.Kill()
			<-done
			return stopped, nil, err
		}
		got.wall += r.wall
		got.cpu += r.cpu
		got.ops += r.ops
	}
}

// waitStopped waits up to a second for the process to reach the stopped
// state and reports whether it did.
func waitStopped(pid int) bool {
	for end := time.Now().Add(time.Second); time.Now().Before(end); time.Sleep(100 * time.Microsecond) {
		switch state, err := procState(pid); {
		case err != nil || state == 'Z' || state == 'X':
			return false
		case state == 'T' || state == 't':
			return true
		}
	}
	return false
}
