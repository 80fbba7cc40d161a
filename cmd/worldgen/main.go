// Command worldgen generates a synthetic Internet and writes the scan
// corpuses (Rapid7/Censys/Certigo-shaped NDJSON+gzip files) to a
// directory, together with a manifest recording the world parameters so
// other tools can rebuild the matching IP-to-AS and WHOIS datasets.
//
// Usage:
//
//	worldgen -out ./data [-seed 1] [-scale 0.1] [-vendors rapid7,censys,certigo] [-from 2013-10] [-to 2021-04]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"strings"

	"offnetscope/internal/astopo"
	"offnetscope/internal/bgpsim"
	"offnetscope/internal/corpus"
	"offnetscope/internal/durable"
	"offnetscope/internal/scanners"
	"offnetscope/internal/timeline"
	"offnetscope/internal/worldsim"
)

// Manifest records how a corpus directory was generated.
type Manifest struct {
	Seed                 uint64  `json:"seed"`
	Scale                float64 `json:"scale"`
	BackgroundHostsPerAS float64 `json:"background_hosts_per_as,omitempty"`
	Vendors              string  `json:"vendors"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("worldgen: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("worldgen", flag.ContinueOnError)
	out := fs.String("out", "", "output directory (required)")
	seed := fs.Uint64("seed", 1, "world seed")
	scale := fs.Float64("scale", worldsim.DefaultScale, "world scale relative to the real Internet")
	vendors := fs.String("vendors", "rapid7,censys,certigo", "comma-separated corpus vendors")
	from := fs.String("from", "2013-10", "first snapshot (YYYY-MM)")
	to := fs.String("to", "2021-04", "last snapshot (YYYY-MM)")
	datasets := fs.Bool("datasets", false, "also write AS-relationship, AS-org, and RIB dataset files")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *out == "" {
		fs.Usage()
		return fmt.Errorf("-out is required")
	}
	first, ok := timeline.FromLabel(*from)
	if !ok {
		return fmt.Errorf("invalid -from %q (quarterly grid 2013-10..2021-04)", *from)
	}
	last, ok := timeline.FromLabel(*to)
	if !ok || last < first {
		return fmt.Errorf("invalid -to %q", *to)
	}

	fmt.Fprintf(stdout, "building world (seed=%d scale=%g)...\n", *seed, *scale)
	w, err := worldsim.New(worldsim.Config{Seed: *seed, Scale: *scale})
	if err != nil {
		return err
	}

	profiles := map[string]scanners.Profile{
		"rapid7":  scanners.Rapid7Profile(),
		"censys":  scanners.CensysProfile(),
		"certigo": scanners.CertigoProfile(),
	}
	var selected []scanners.Profile
	for _, name := range strings.Split(*vendors, ",") {
		p, ok := profiles[strings.TrimSpace(name)]
		if !ok {
			return fmt.Errorf("unknown vendor %q", name)
		}
		selected = append(selected, p)
	}

	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	if err := durable.WriteAtomic(filepath.Join(*out, "manifest.json"), func(f io.Writer) error {
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		return enc.Encode(Manifest{Seed: *seed, Scale: *scale, Vendors: *vendors})
	}); err != nil {
		return err
	}

	if *datasets {
		if err := writeDatasets(*out, w, first, last, *seed, stdout); err != nil {
			return err
		}
	}

	records := 0
	for s := first; s <= last; s++ {
		for _, p := range selected {
			snap := scanners.Scan(w, p, s)
			if snap == nil {
				continue
			}
			if err := corpus.Write(*out, snap); err != nil {
				return err
			}
			records += len(snap.Certs) + len(snap.HTTP) + len(snap.HTTPS)
			fmt.Fprintf(stdout, "%s %-8s certs=%-8d http=%-8d https=%-8d\n",
				s.Label(), snap.Vendor, len(snap.Certs), len(snap.HTTP), len(snap.HTTPS))
		}
	}
	fmt.Fprintf(stdout, "wrote %d records under %s\n", records, *out)
	return nil
}

// writeDatasets emits the public-dataset stand-ins next to the corpus:
// the CAIDA-style AS-relationship and AS-organization files and one RIB
// per collector and month. Each is replaced atomically: readers take
// them line by line, so a truncated file would read without error.
func writeDatasets(out string, w *worldsim.World, first, last timeline.Snapshot, seed uint64, stdout io.Writer) error {
	dir := filepath.Join(out, "datasets")
	if err := os.MkdirAll(filepath.Join(dir, "rib"), 0o755); err != nil {
		return err
	}
	if err := durable.WriteAtomic(filepath.Join(dir, "as-rel.txt"), func(f io.Writer) error {
		return astopo.WriteASRel(f, w.Graph())
	}); err != nil {
		return err
	}
	if err := durable.WriteAtomic(filepath.Join(dir, "as-org.txt"), func(f io.Writer) error {
		return astopo.WriteOrgs(f, w.Orgs())
	}); err != nil {
		return err
	}
	ribs := 0
	for s := first; s <= last; s++ {
		for _, col := range []bgpsim.Collector{bgpsim.RouteViews, bgpsim.RIPERIS} {
			rib := bgpsim.BuildRIB(w.Graph(), w.Alloc(), col, s, bgpsim.DefaultNoise(), seed)
			name := fmt.Sprintf("%s_%s.txt", col, s.Label())
			if err := durable.WriteAtomic(filepath.Join(dir, "rib", name), func(f io.Writer) error {
				return bgpsim.WriteRIB(f, rib)
			}); err != nil {
				return err
			}
			ribs++
		}
	}
	fmt.Fprintf(stdout, "wrote datasets: as-rel.txt, as-org.txt, %d RIBs\n", ribs)
	return nil
}
