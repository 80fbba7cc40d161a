package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os/exec"
	"strconv"
	"sync"
	"time"

	"offnetscope/internal/loadgen"
)

// The machine the benchmark is sized for shares its host: for minutes at
// a time other tenants slow memory- and syscall-heavy code by 20–60%,
// which moves an absolute time between two runs of the same code by more
// than any useful bound. So each timing is taken against a reference
// workload of the same kind (bench/offnetref), run next to each
// measured unit in the same placement, and reported relative to it: a
// slowdown of the host slows both, and the ratio cancels it. The
// references depend on the Go standard library alone, so no change to
// offnetscope can move them.

// Set-up is reported in seconds at a fixed reference speed: the median
// ratio of set-up to its reference, times what the reference takes on
// the two-core machine the benchmark was defined on in a quiet period.
// These constants convert units; they must never change, or set-up
// times measured before and after a change stop being comparable.
const (
	// refStartNominal is an offnetref serve start, exec until the first
	// /readyz 200.
	refStartNominal = 2 * time.Millisecond
	// refRecordNominal is the wall time of one offnetref study record.
	refRecordNominal = 6 * time.Microsecond
)

// sample is one measured unit of work: its wall and CPU time and the
// operations it completed.
type sample struct {
	wall, cpu time.Duration
	ops       int64
}

func (s sample) wallPerOp() float64 { return float64(s.wall) / float64(s.ops) }
func (s sample) cpuPerOp() float64  { return float64(s.cpu) / float64(s.ops) }

// calibrated collects (workload, reference) sample pairs and reports the
// workload's cost per operation in reference operations: the median of
// the pairs' ratios.
type calibrated struct {
	walls, cpus     []float64 // per pair, workload ÷ reference
	rawWall, rawCPU []float64 // per pair, the workload's µs per operation
	refWall, refCPU []float64 // per pair, the reference's µs per operation
}

func (c *calibrated) add(w, ref sample) {
	c.walls = append(c.walls, w.wallPerOp()/ref.wallPerOp())
	c.cpus = append(c.cpus, w.cpuPerOp()/ref.cpuPerOp())
	c.rawWall = append(c.rawWall, w.wallPerOp()/float64(time.Microsecond))
	c.rawCPU = append(c.rawCPU, w.cpuPerOp()/float64(time.Microsecond))
	c.refWall = append(c.refWall, ref.wallPerOp()/float64(time.Microsecond))
	c.refCPU = append(c.refCPU, ref.cpuPerOp()/float64(time.Microsecond))
}

// report sets the calibrated end-to-end metrics and keeps the
// uncalibrated times beside them in the full result.
func (c *calibrated) report(res *result) {
	res.Metrics["wall_per_op"] = median(c.walls)
	res.Metrics["cpu_per_op"] = median(c.cpus)
	res.Raw["wall_us_per_op"] = median(c.rawWall)
	res.Raw["cpu_us_per_op"] = median(c.rawCPU)
	res.Raw["ref_wall_us_per_op"] = median(c.refWall)
	res.Raw["ref_cpu_us_per_op"] = median(c.refCPU)
	res.Raw["pairs"] = float64(len(c.walls))
}

// setupTimes collects set-up repetitions, each with the reference run
// right after it, and reports set-up in seconds at reference speed.
type setupTimes struct {
	ratios, raw []float64     // per repetition, set-up ÷ reference operation
	nominal     time.Duration // a reference operation at reference speed
}

func (s *setupTimes) add(setup time.Duration, ref sample) {
	s.ratios = append(s.ratios, float64(setup)/ref.wallPerOp())
	s.raw = append(s.raw, setup.Seconds())
}

func (s *setupTimes) report(res *result) {
	res.Metrics["setup_s"] = median(s.ratios) * s.nominal.Seconds()
	res.Raw["setup_s"] = median(s.raw)
}

// studyRef is a running offnetref study process. It runs apart from
// this one so that its allocations stay out of this process's heap,
// whose size the workload under test decides.
type studyRef struct {
	cmd    *exec.Cmd
	in     io.WriteCloser
	out    *bufio.Scanner
	stderr bytes.Buffer

	closeOnce sync.Once
	closeErr  error
}

func startStudyRef(ctx context.Context, b bins) (*studyRef, error) {
	r := &studyRef{cmd: command(ctx, b.offnetref, "study")}
	r.cmd.Stderr = &r.stderr
	var err error
	if r.in, err = r.cmd.StdinPipe(); err != nil {
		return nil, err
	}
	out, err := r.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	r.out = bufio.NewScanner(out)
	if err := r.cmd.Start(); err != nil {
		return nil, err
	}
	return r, nil
}

// run has the reference run for at least d, at least one round, and
// returns what it measured, one operation per record.
func (r *studyRef) run(d time.Duration) (sample, error) {
	if _, err := fmt.Fprintln(r.in, d); err != nil {
		return sample{}, errors.Join(err, r.close())
	}
	if !r.out.Scan() {
		return sample{}, errors.Join(errors.New("offnetref study stopped answering"), r.out.Err(), r.close())
	}
	var m struct {
		Wall int64 `json:"wall_ns"`
		CPU  int64 `json:"cpu_ns"`
		Ops  int64 `json:"ops"`
	}
	if err := json.Unmarshal(r.out.Bytes(), &m); err != nil || m.Ops <= 0 {
		return sample{}, fmt.Errorf("offnetref study printed %q", r.out.Bytes())
	}
	return sample{wall: time.Duration(m.Wall), cpu: time.Duration(m.CPU), ops: m.Ops}, nil
}

// close ends the process and waits for it. Calls after the first
// return the first call's result.
func (r *studyRef) close() error {
	r.closeOnce.Do(func() {
		r.in.Close()
		if err := r.cmd.Wait(); err != nil {
			r.closeErr = fmt.Errorf("offnetref study: %v: %s", err, r.stderr.Bytes())
		}
	})
	return r.closeErr
}

// startReference starts the serving reference on the placement's daemon
// CPU and waits until it is ready.
func startReference(ctx context.Context, b bins, pl *placement) (*daemon, error) {
	return startServer(command(ctx, b.offnetref, "serve"), pl)
}

// refPlan is the traffic the serving reference gets: GETs of distinct
// paths, each to be answered 200 with a generation, as an AS query is.
func refPlan() *loadgen.Plan {
	p := &loadgen.Plan{Requests: make([]loadgen.Request, 1024)}
	for i := range p.Requests {
		p.Requests[i] = loadgen.Request{Kind: loadgen.KindAS, Method: "GET", Path: "/ref/" + strconv.Itoa(i), Items: 1}
	}
	return p
}
