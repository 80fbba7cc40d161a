// Command livescan demonstrates the methodology over real sockets: it
// starts the loopback demo farm (servefarm.StartDemo), sweeps it with
// the concurrent TLS/HTTPS prober (the certigo/ZGrab2 roles), and runs
// the one §4 inference engine over what the sweep collected. It prints
// each server's verdict, then the funnel.drop.* and
// funnel.cert_invalid.* counters: where the engine dropped records.
//
// Usage:
//
//	livescan [-concurrency 16] [-rate 200]
//
// SIGINT/SIGTERM cancels the scan context: in-flight probes are
// abandoned mid-handshake, the farm shuts down, and the process exits
// cleanly instead of leaving sockets and workers behind.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"

	"offnetscope/internal/astopo"
	"offnetscope/internal/core"
	"offnetscope/internal/hg"
	"offnetscope/internal/netmodel"
	"offnetscope/internal/obs"
	"offnetscope/internal/probe"
	"offnetscope/internal/servefarm"
	"offnetscope/internal/waves"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("livescan: ")

	concurrency := flag.Int("concurrency", 16, "probe worker pool size")
	rate := flag.Int("rate", 200, "probes per second (0 = unlimited)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if err := run(ctx, os.Stdout, *concurrency, *rate); err != nil {
		log.Fatal(err)
	}
}

func run(ctx context.Context, w io.Writer, concurrency, rate int) error {
	// The scanner would read either as its default: 16 workers, no limit.
	if concurrency < 1 || rate < 0 {
		return fmt.Errorf("-concurrency must be at least 1 and -rate not negative (0: unlimited), got %d and %d", concurrency, rate)
	}
	farm, err := servefarm.StartDemo()
	if err != nil {
		return err
	}
	defer farm.Close()
	log.Printf("farm up: %d servers on loopback", len(farm.Servers))

	scanner := probe.New(probe.Config{
		Concurrency:   concurrency,
		RatePerSecond: rate,
		Timeout:       3 * time.Second,
	})
	defer scanner.Close()

	start := time.Now()
	observed := waves.Sweep(ctx, scanner, farm.TLSAddrs())
	if observed == nil {
		return fmt.Errorf("scan interrupted: %w", ctx.Err())
	}
	log.Printf("swept %d servers in %v", len(observed), time.Since(start).Round(time.Millisecond))

	targets, _ := waves.FarmTargets(farm)
	reg := obs.NewRegistry("livescan")
	cfg := waves.Config{Trust: farm.Trust, Orgs: farm.Orgs, Metrics: reg}
	res := cfg.Infer(0, time.Now(), targets, observed)
	for i, s := range farm.Servers {
		fmt.Fprintf(w, "%-16s AS%d  %s\n", s.Spec.Name, targets[i].AS, verdict(res, targets[i].AS, waves.Key(i)))
	}

	counters := reg.Snapshot().Counters
	var names []string
	for name := range counters {
		if strings.HasPrefix(name, "funnel.drop.") || strings.HasPrefix(name, "funnel.cert_invalid.") {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	fmt.Fprintln(w)
	for _, name := range names {
		fmt.Fprintf(w, "%-38s %d\n", name, counters[name])
	}
	return nil
}

// verdict reads one server's fate off the engine's result: inside a
// hypergiant's own AS, a confirmed off-net, a §4.3 candidate whose
// headers did not confirm it, or none of these.
func verdict(res *core.Result, as astopo.ASN, key netmodel.IP) string {
	for _, h := range hg.All() {
		hr := res.PerHG[h.ID]
		switch {
		case slices.Contains(hr.OnNetASes, as):
			return "on-net: " + h.Name
		case slices.Contains(hr.ConfirmedIPList, key):
			return "CONFIRMED off-net: " + h.Name
		case slices.Contains(hr.CandidateIPList, key):
			return "candidate without header confirmation: " + h.Name
		}
	}
	return "not a candidate"
}
