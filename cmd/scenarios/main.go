// Command scenarios runs the scenario-matrix evaluation harness: a
// grid of adversarial worldsim configurations (IPv6-only eyeballs, §8
// hide-and-seek evasion, aggressive customer-cert reuse, flash
// hypergiant expansion/retreat, vendor outages, scale sweeps), full
// inference per cell, and per-cell precision/recall/coverage gates
// against simulator ground truth.
//
// Usage:
//
//	scenarios -grid smoke                      # the CI gate (make scenarios-smoke)
//	scenarios -grid full -workers 2            # the committed matrix (make scenarios)
//	scenarios -grid full -out results/SCENARIOS.json -md results/SCENARIOS.md
//	scenarios -list                            # enumerate cells without running
//	scenarios -cell hide/null-0.95             # run one cell
//
// The matrix is byte-identical at any -workers setting for a fixed grid
// and seed.
//
// Exit codes: 0 all cells pass; 1 failure; 2 usage error; 3 the grid
// ran to completion but at least one cell violated its thresholds.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"syscall"

	"offnetscope/internal/scenarios"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("scenarios: ")
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
	exitOK        = 0
	exitFailure   = 1
	exitUsage     = 2
	exitThreshold = 3
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
	fs := flag.NewFlagSet("scenarios", flag.ContinueOnError)
	grid := fs.String("grid", "smoke", "scenario grid to run (full, smoke)")
	seed := fs.Uint64("seed", 1, "world seed driving every cell")
	workers := fs.Int("workers", 1, "concurrent cells (execution knob; output identical at any value)")
	out := fs.String("out", "", "write the matrix JSON here instead of stdout")
	md := fs.String("md", "", "also render the markdown results table here")
	list := fs.Bool("list", false, "list the grid's cells without running anything")
	cell := fs.String("cell", "", "run only this cell id (e.g. hide/null-0.95)")
	quiet := fs.Bool("q", false, "suppress per-cell progress lines")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return &exitError{code: exitUsage, err: err, quiet: true}
	}
	if fs.NArg() != 0 {
		return usageError(fmt.Errorf("unexpected arguments: %v", fs.Args()))
	}
	if *workers < 1 {
		// scenarios.Run would run one worker instead.
		return usageError(fmt.Errorf("-workers must be at least 1, got %d", *workers))
	}

	cells, err := scenarios.GridByName(*grid, *seed)
	if err != nil {
		return usageError(err)
	}
	if *list {
		fmt.Fprintf(stdout, "grid %q: %d cells, families %v\n", *grid, len(cells), scenarios.Families(cells))
		for _, c := range cells {
			fmt.Fprintf(stdout, "  %-24s %s\n", c.ID, c.Label)
		}
		return nil
	}
	if *cell != "" {
		c, ok := scenarios.ByID(cells, *cell)
		if !ok {
			return usageError(fmt.Errorf("no cell %q in grid %q (try -list)", *cell, *grid))
		}
		cells = []scenarios.Cell{c}
	}

	opts := scenarios.Options{Workers: *workers}
	if !*quiet {
		opts.Progress = func(r scenarios.CellResult) {
			verdict := "pass"
			if !r.Pass {
				verdict = "FAIL"
			}
			log.Printf("%-24s precision %5.1f%%  recall %5.1f%%  coverage %5.1f%%  %s",
				r.ID, r.Precision, r.Recall, r.Coverage, verdict)
		}
	}
	m, err := scenarios.Run(ctx, *grid, cells, opts)
	if err != nil {
		return err
	}

	data, err := m.EncodeJSON()
	if err != nil {
		return err
	}
	if *out != "" {
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			return err
		}
	} else {
		if _, err := stdout.Write(data); err != nil {
			return err
		}
	}
	if *md != "" {
		if err := os.WriteFile(*md, []byte(m.Markdown()), 0o644); err != nil {
			return err
		}
	}
	if !m.Pass {
		return &exitError{code: exitThreshold,
			err: fmt.Errorf("%d of %d cells out of thresholds: %v", len(m.Failed), len(m.Cells), m.Failed)}
	}
	return nil
}
