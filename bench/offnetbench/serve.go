package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"offnetscope/internal/footstore"
	"offnetscope/internal/loadgen"
)

// daemon is one server process on a loopback port: offnetd serving a
// store, or the serving reference.
type daemon struct {
	cmd    *exec.Cmd
	addr   string        // 127.0.0.1:port
	ready  time.Duration // exec until the first /readyz 200
	stdout chan struct{} // closed once stdout is drained
	stderr bytes.Buffer

	stopOnce sync.Once
	stopErr  error
}

// probe asks /readyz on a fresh connection each time, leaving the load
// connections the only ones the daemon keeps open.
var probe = &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: 5 * time.Second}

// startDaemon execs offnetd with its default flags on an ephemeral
// port, on the placement's daemon CPU unless pl is nil, and waits until
// /readyz answers 200.
func startDaemon(ctx context.Context, bin, store string, pl *placement) (*daemon, error) {
	return startServer(command(ctx, bin, "-store", store, "-addr", "127.0.0.1:0"), pl)
}

// startServer starts cmd, a server that prints "serving on http://ADDR"
// and answers /readyz as offnetd does, on the placement's daemon CPU
// unless pl is nil, and waits until it is ready.
func startServer(cmd *exec.Cmd, pl *placement) (*daemon, error) {
	d := &daemon{cmd: cmd, stdout: make(chan struct{})}
	d.cmd.Stderr = &d.stderr
	out, err := d.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	start := d.cmd.Start
	if pl != nil {
		start = func() error { return pl.startDaemonProcess(d.cmd) }
	}
	t0 := time.Now()
	if err := start(); err != nil {
		return nil, err
	}
	addr := make(chan string, 1)
	go func() {
		defer close(d.stdout)
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, "serving on http://"); ok {
				addr <- strings.Fields(rest)[0]
			}
		}
		io.Copy(io.Discard, out) // a line longer than the scanner takes
	}()
	select {
	case a := <-addr:
		d.addr = a
	case <-d.stdout:
		d.cmd.Wait()
		return nil, fmt.Errorf("%s exited during start-up: %s", d.name(), d.stderr.Bytes())
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, fmt.Errorf("%s did not start listening within 30s", d.name())
	}
	for {
		if _, err := d.readyz(); err == nil {
			break
		}
		if time.Since(t0) > 30*time.Second {
			d.stop()
			return nil, fmt.Errorf("%s never became ready", d.name())
		}
		time.Sleep(time.Millisecond)
	}
	d.ready = time.Since(t0)
	return d, nil
}

// readyz returns the served generation once the daemon is ready.
func (d *daemon) readyz() (uint64, error) {
	resp, err := probe.Get("http://" + d.addr + "/readyz")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var body struct {
		Ready      bool   `json:"ready"`
		Generation uint64 `json:"generation"`
		Degraded   string `json:"degraded"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK || !body.Ready || body.Degraded != "" {
		return 0, fmt.Errorf("offnetd not ready: status %d, degraded %q", resp.StatusCode, body.Degraded)
	}
	return body.Generation, nil
}

// stop shuts the daemon down with SIGTERM, as an operator would, and
// waits for it; an unclean exit is an error. Calls after the first
// return the first call's result.
func (d *daemon) stop() error {
	d.stopOnce.Do(func() {
		d.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-d.stdout:
		case <-time.After(10 * time.Second):
			d.cmd.Process.Kill()
			<-d.stdout
		}
		if err := d.cmd.Wait(); err != nil {
			d.stopErr = fmt.Errorf("%s: %v: %s", d.name(), err, d.stderr.Bytes())
		}
	})
	return d.stopErr
}

func (d *daemon) name() string { return filepath.Base(d.cmd.Path) }
func (d *daemon) pid() int     { return d.cmd.Process.Pid }

// planRequests sizes the loadgen trace; closed loops wrap around it.
const planRequests = 100_000

// servingInputs opens the store offnetd serves, for the spot checks,
// and derives the loadgen trace from it with the default mix.
func servingInputs(storePath string, seed int64) (*footstore.Store, *loadgen.Plan, error) {
	st, err := footstore.Open(storePath)
	if err != nil {
		return nil, nil, err
	}
	plan, err := loadgen.BuildPlan(st, loadgen.PlanConfig{Seed: seed, Requests: planRequests})
	return st, plan, err
}

// warmup runs before every measured serving phase, so the query cache
// is full and connections are open when timing starts.
const warmup = 500 * time.Millisecond

// A serving run alternates a daemonSlice of load on offnetd with a
// refSlice of the same load on the serving reference; each pair gives
// one calibrated sample, and the metrics are medians over the pairs.
const (
	daemonSlice = 350 * time.Millisecond
	refSlice    = 150 * time.Millisecond
)

// reloadEvery paces serve-reload's SIGHUPs: ten validated reloads a
// second, each flushing the query cache, so reload and cache-refill
// costs are a visible share of the run rather than a rounding error.
const reloadEvery = 100 * time.Millisecond

// storeSeed is the seed of the world whose store the serving workloads
// serve; their own seed drives the traffic. What a request costs
// depends on the store it is answered from — worlds of different seeds
// differ in their footprints and prefixes, and the cost per request of
// seeds 1–10 spread by a tenth — so every serving run serves the same
// store, as a database benchmark queries one fixed database.
const storeSeed = 1

// runServe measures offnetd under a closed loop on two connections,
// against the serving reference under the same loop: serve-zipf with
// the store fixed, serve-reload with the store reloaded every
// reloadEvery while offnetd is under load.
func runServe(ctx context.Context, e *env) (*result, error) {
	res := newResult(e)
	dir := filepath.Join(e.work, "corpus")
	if err := genCorpus(ctx, e.bins, dir, storeSeed, e.spec); err != nil {
		return nil, err
	}
	run, err := runOffnetmap(ctx, e.bins, dir, filepath.Join(e.work, "map"), nil)
	if err != nil {
		return nil, err
	}
	if run.exitErr != nil {
		return nil, run.exitErr
	}
	st, plan, err := servingInputs(run.storePath, e.seed)
	if err != nil {
		return nil, err
	}
	pl, release, err := placeServing(e.log)
	if err != nil {
		return nil, err
	}
	defer release()
	starts := setupTimes{nominal: refStartNominal}
	for i := 0; i < setupRepeats; i++ {
		var took [2]time.Duration
		for j, start := range []func() (*daemon, error){
			func() (*daemon, error) { return startDaemon(ctx, e.bins.offnetd, run.storePath, pl) },
			func() (*daemon, error) { return startReference(ctx, e.bins, pl) },
		} {
			s, err := start()
			if err != nil {
				return nil, err
			}
			took[j] = s.ready
			if err := s.stop(); err != nil {
				return nil, err
			}
		}
		starts.add(took[0], sample{wall: took[1], ops: 1})
	}
	d, err := startDaemon(ctx, e.bins.offnetd, run.storePath, pl)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	ref, err := startReference(ctx, e.bins, pl)
	if err != nil {
		return nil, err
	}
	defer ref.stop()
	rplan := refPlan()

	var next, rnext atomic.Int64
	w := closedLoop(ctx, d.addr, plan, st, warmup, &next, nil)
	res.Attempted += w.sent
	res.failAll(w.failures)
	if w := closedLoop(ctx, ref.addr, rplan, nil, warmup, &rnext, nil); w.failed() > 0 {
		return nil, fmt.Errorf("the serving reference failed: %v", w.failures)
	}
	var rl *reloader
	if e.workload == serveReload {
		rl = newReloader(d.pid(), reloadEvery)
	}
	ph := &phase{failures: make(map[string]int64)}
	var cal calibrated
	for start := time.Now(); time.Since(start) < e.seconds; {
		s, ds, err := serverSlice(d.pid(), func() (*phase, error) {
			return withReloads(rl, func(onGen func(uint64)) *phase {
				return closedLoop(ctx, d.addr, plan, st, daemonSlice, &next, onGen)
			})
		})
		if err != nil {
			return nil, err
		}
		ph.merge(s)
		r, rs, err := serverSlice(ref.pid(), func() (*phase, error) {
			return closedLoop(ctx, ref.addr, rplan, nil, refSlice, &rnext, nil), nil
		})
		if err != nil {
			return nil, err
		}
		if r.failed() > 0 {
			return nil, fmt.Errorf("the serving reference failed: %v", r.failures)
		}
		if ds.ops > 0 {
			cal.add(ds, rs)
		}
	}
	hwm, err := peakRSSKB(d.pid())
	if err != nil {
		return nil, err
	}
	res.Attempted += ph.sent
	res.failAll(ph.failures)
	if rl != nil {
		// Reloads must have committed; offnetd may coalesce SIGHUPs that
		// arrive while it is still busy with the last one, but never
		// drop all of them or report a rejected store.
		gen, err := d.readyz()
		if err != nil || gen < 2 || gen > uint64(1+rl.sent) {
			res.fail("reload_not_committed", 1)
			fmt.Fprintf(e.log, "after %d SIGHUPs offnetd serves generation %d (%v)\n", rl.sent, gen, err)
		}
	}
	if err := d.stop(); err != nil {
		res.fail("offnetd_unclean_exit", 1)
		fmt.Fprintln(e.log, err)
	}
	if err := ref.stop(); err != nil {
		return nil, err
	}
	if len(cal.walls) == 0 {
		return nil, errors.New("no request succeeded")
	}
	starts.report(res)
	cal.report(res)
	res.Metrics["peak_rss_mb"] = float64(hwm) / 1024
	return res, nil
}

// serverSlice runs one phase of load and returns it with its sample:
// the phase's wall time and the CPU the server with the given pid spent
// meanwhile, over the requests that succeeded.
func serverSlice(pid int, load func() (*phase, error)) (*phase, sample, error) {
	cpu0, err := procCPU(pid)
	if err != nil {
		return nil, sample{}, err
	}
	ph, err := load()
	if err != nil {
		return nil, sample{}, err
	}
	cpu1, err := procCPU(pid)
	if err != nil {
		return nil, sample{}, err
	}
	return ph, sample{wall: ph.wall, cpu: cpu1 - cpu0, ops: ph.sent - ph.failed()}, nil
}

// withReloads runs load while rl, when not nil, signals reloads.
func withReloads(rl *reloader, load func(onGen func(uint64)) *phase) (*phase, error) {
	if rl == nil {
		return load(nil), nil
	}
	stop := make(chan struct{})
	hupErr := make(chan error, 1)
	go func() { hupErr <- rl.run(stop) }()
	ph := load(rl.observe)
	close(stop)
	return ph, <-hupErr
}

// placeServing pins this process, the load driver, to one CPU and
// returns the placement offnetd is started with, plus the function that
// undoes the pinning. On a machine with a single usable CPU it pins
// nothing and the placement is nil.
func placeServing(log io.Writer) (*placement, func(), error) {
	pl, ok := newPlacement()
	if !ok {
		fmt.Fprintln(log, "one usable CPU: offnetd and the load driver share it")
		return nil, func() {}, nil
	}
	if err := pl.pinDriver(); err != nil {
		return nil, nil, err
	}
	return pl, func() { pl.release() }, nil
}
