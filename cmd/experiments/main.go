// Command experiments regenerates the paper's tables and figures over a
// synthetic world, printing the same rows and series the paper reports.
//
// Usage:
//
//	experiments -exp table3          # one experiment
//	experiments -exp all             # every registered experiment
//	experiments -list                # what is available
//
// Progress and wall times go to stderr: stdout is the same on every run.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"offnetscope/internal/analysis"
	"offnetscope/internal/worldsim"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")

	exp := flag.String("exp", "all", "experiment id (see -list) or 'all'")
	list := flag.Bool("list", false, "list available experiments")
	seed := flag.Uint64("seed", 1, "world seed")
	scale := flag.Float64("scale", worldsim.DefaultScale, "world scale relative to the real Internet")
	csvDir := flag.String("csv", "", "also export experiment data as CSV files under this directory")
	flag.Parse()

	if *list {
		for _, e := range analysis.Experiments() {
			fmt.Printf("%-10s %s\n", e.ID, e.Title)
		}
		return
	}

	log.Printf("building world (seed=%d scale=%g)...", *seed, *scale)
	start := time.Now()
	env, err := analysis.NewEnv(worldsim.Config{Seed: *seed, Scale: *scale})
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("world ready in %v", time.Since(start).Round(time.Millisecond))

	run := func(e analysis.Experiment) {
		t0 := time.Now()
		result := e.Run(env)
		log.Printf("%s done in %v", e.ID, time.Since(t0).Round(time.Millisecond))
		fmt.Printf("\n================ %s — %s ================\n%s", e.ID, e.Title, result.Render())
		if *csvDir != "" {
			files, err := analysis.WriteCSV(*csvDir, result)
			if err != nil {
				log.Printf("csv export for %s: %v", e.ID, err)
			}
			for _, f := range files {
				log.Printf("wrote %s", f)
			}
		}
	}

	if *exp == "all" {
		for _, e := range analysis.Experiments() {
			run(e)
		}
		return
	}
	e, ok := analysis.ByID(*exp)
	if !ok {
		log.Printf("unknown experiment %q; use -list", *exp)
		os.Exit(2)
	}
	run(e)
}
