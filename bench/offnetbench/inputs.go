package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"syscall"

	"offnetscope/internal/astopo"
	"offnetscope/internal/bgpsim"
	"offnetscope/internal/core"
	"offnetscope/internal/corpus"
	"offnetscope/internal/footstore"
	"offnetscope/internal/timeline"
	"offnetscope/internal/worldsim"
)

// spec fixes the generated world's size and study window.
type spec struct {
	Scale    float64
	From, To string // snapshot labels, inclusive
}

// defaultSpec is what every workload runs on: nine quarterly Rapid7
// snapshots (2019-04..2021-04) of a 0.005-scale world, about 330k
// records and 8 MB of gzip. It is small enough that a run, generating
// its own inputs, takes about 25 s, and large enough that decode and
// inference, not process start-up, dominate a study.
var defaultSpec = spec{Scale: 0.005, From: "2019-04", To: "2021-04"}

// vendor is the only corpus the benchmark generates: Rapid7 has HTTPS
// headers for the whole window, so every step of §4 runs.
const vendor = corpus.Rapid7

// bins are the offnetscope commands the workloads drive, and the
// reference workloads they are timed against.
type bins struct{ worldgen, offnetmap, offnetd, offnetref string }

// buildBinaries compiles the commands from the source tree at repo, and
// offnetref from the benchmark's module in it, into dir. Build time is
// not measured.
func buildBinaries(ctx context.Context, repo, dir string) (bins, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return bins{}, err
	}
	for _, b := range []struct {
		dir  string
		pkgs []string
	}{
		{repo, []string{"./cmd/worldgen", "./cmd/offnetmap", "./cmd/offnetd"}},
		{filepath.Join(repo, "bench"), []string{"./offnetref"}},
	} {
		cmd := exec.CommandContext(ctx, "go", append([]string{"build", "-o", dir + string(filepath.Separator)}, b.pkgs...)...)
		cmd.Dir = b.dir
		if out, err := cmd.CombinedOutput(); err != nil {
			return bins{}, fmt.Errorf("building %v: %v\n%s", b.pkgs, err, out)
		}
	}
	return bins{
		worldgen:  filepath.Join(dir, "worldgen"),
		offnetmap: filepath.Join(dir, "offnetmap"),
		offnetd:   filepath.Join(dir, "offnetd"),
		offnetref: filepath.Join(dir, "offnetref"),
	}, nil
}

// command prepares a child process that dies with the benchmark, so an
// interrupted run leaves no daemon behind.
func command(ctx context.Context, name string, args ...string) *exec.Cmd {
	cmd := exec.CommandContext(ctx, name, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	return cmd
}

// genCorpus writes the seeded corpus and its datasets with worldgen,
// then reads every file once so the page cache is warm: disk I/O is not
// what the benchmark measures.
func genCorpus(ctx context.Context, b bins, dir string, seed int64, sp spec) error {
	cmd := command(ctx, b.worldgen, "-out", dir, "-seed", strconv.FormatInt(seed, 10),
		"-scale", strconv.FormatFloat(sp.Scale, 'g', -1, 64), "-vendors", string(vendor),
		"-datasets", "-from", sp.From, "-to", sp.To)
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("worldgen: %v\n%s", err, out)
	}
	return filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		_, err = io.Copy(io.Discard, f)
		return err
	})
}

// decoded is a corpus read into memory with corpus.ReadWithStats.
type decoded struct {
	snaps   map[timeline.Snapshot]*corpus.Snapshot
	order   []timeline.Snapshot // snapshots with data, in time order
	records int64               // certificate plus header records
}

// snapshotsOnDisk lists, in time order, the months the corpus at dir
// has data for.
func snapshotsOnDisk(dir string) ([]timeline.Snapshot, error) {
	var out []timeline.Snapshot
	for _, s := range timeline.All() {
		if _, err := os.Stat(corpus.Dir(dir, vendor, s)); err == nil {
			out = append(out, s)
		} else if !errors.Is(err, fs.ErrNotExist) {
			return nil, err
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no snapshots under %s", dir)
	}
	return out, nil
}

// decodeCorpus reads the given months into memory, one corpus.decode
// span each. It decodes with corpus.OpenStream, the reader offnetmap
// -growth uses, draining the three files concurrently as the streaming
// engine does and keeping every batch. The generated corpus has no
// damage, so a skipped record fails the read.
func decodeCorpus(dir string, snaps []timeline.Snapshot, tr *tracer) (*decoded, error) {
	d := &decoded{snaps: make(map[timeline.Snapshot]*corpus.Snapshot), order: snaps}
	for _, s := range snaps {
		var snap *corpus.Snapshot
		var stats *corpus.ReadStats
		if err := tr.span("corpus.decode", func() (err error) {
			snap, stats, err = readMonth(dir, s)
			return err
		}); err != nil {
			return nil, fmt.Errorf("decoding %s: %w", s.Label(), err)
		}
		if n := stats.TotalSkipped(); n > 0 {
			return nil, fmt.Errorf("decoding %s: %d malformed records in a generated corpus", s.Label(), n)
		}
		d.snaps[s] = snap
		d.records += int64(stats.TotalRecords())
	}
	return d, nil
}

// readMonth collects one month's record streams into a Snapshot. Batch
// slices are reused by the reader, so their records are copied out.
func readMonth(dir string, s timeline.Snapshot) (*corpus.Snapshot, *corpus.ReadStats, error) {
	st, err := corpus.OpenStream(dir, vendor, s, corpus.ReadOptions{Tolerant: true})
	if err != nil {
		return nil, nil, err
	}
	snap := &corpus.Snapshot{Vendor: vendor, Snapshot: s}
	var errs [3]error
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		errs[0] = st.Certs(func(b []corpus.CertRecord) error { snap.Certs = append(snap.Certs, b...); return nil })
	}()
	go func() {
		defer wg.Done()
		errs[1] = st.HTTPS(func(b []corpus.HeaderRecord) error { snap.HTTPS = append(snap.HTTPS, b...); return nil })
	}()
	go func() {
		defer wg.Done()
		errs[2] = st.HTTP(func(b []corpus.HeaderRecord) error { snap.HTTP = append(snap.HTTP, b...); return nil })
	}()
	wg.Wait()
	return snap, st.Stats, errors.Join(errs[:]...)
}

// buildPipeline binds the pipeline to its datasets the way offnetmap
// does: the trust store from the world the manifest names, organizations
// from as-org.txt, and one IP-to-AS mapper per snapshot built from the
// two collectors' RIB files. Every mapper is built here, so study passes
// find them ready.
func buildPipeline(dir string, snaps []timeline.Snapshot, tr *tracer) (*core.Pipeline, error) {
	raw, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		return nil, err
	}
	var mf struct {
		Seed  uint64  `json:"seed"`
		Scale float64 `json:"scale"`
	}
	if err := json.Unmarshal(raw, &mf); err != nil {
		return nil, fmt.Errorf("parsing manifest: %w", err)
	}
	var w *worldsim.World
	if err := tr.span("worldsim.rebuild", func() (err error) {
		w, err = worldsim.New(worldsim.Config{Seed: mf.Seed, Scale: mf.Scale})
		return err
	}); err != nil {
		return nil, err
	}
	ds := filepath.Join(dir, "datasets")
	var orgs *astopo.OrgDB
	if err := tr.span("astopo.orgs", func() error {
		f, err := os.Open(filepath.Join(ds, "as-org.txt"))
		if err != nil {
			return err
		}
		defer f.Close()
		orgs, err = astopo.ReadOrgs(f)
		return err
	}); err != nil {
		return nil, fmt.Errorf("reading as-org.txt: %w", err)
	}
	mappers := make(map[timeline.Snapshot]core.IPMapper, len(snaps))
	for _, s := range snaps {
		if err := tr.span("bgpsim.mapper", func() error {
			var ribs []*bgpsim.RIB
			for _, col := range []bgpsim.Collector{bgpsim.RouteViews, bgpsim.RIPERIS} {
				rib, err := readRIB(filepath.Join(ds, "rib", fmt.Sprintf("%s_%s.txt", col, s.Label())))
				if err != nil {
					return err
				}
				ribs = append(ribs, rib)
			}
			mappers[s] = bgpsim.BuildIP2AS(s, ribs...)
			return nil
		}); err != nil {
			return nil, err
		}
	}
	return &core.Pipeline{
		Trust: w.TrustStore(),
		Orgs:  orgs,
		Opts:  core.DefaultOptions(),
		Mapper: func(s timeline.Snapshot) core.IPMapper {
			if m, ok := mappers[s]; ok {
				return m
			}
			return w.IP2AS(s)
		},
	}, nil
}

func readRIB(path string) (*bgpsim.RIB, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rib, err := bgpsim.ReadRIB(f)
	if err != nil {
		return nil, fmt.Errorf("reading %s: %w", path, err)
	}
	return rib, nil
}

// studyInMemory runs the streaming study engine over a decoded corpus,
// each month fed through corpus.StreamOf.
func studyInMemory(ctx context.Context, p *core.Pipeline, d *decoded, cfg core.StudyConfig) (*core.StudyResult, error) {
	src := func(_ context.Context, s timeline.Snapshot) (*corpus.Stream, error) {
		if snap := d.snaps[s]; snap != nil {
			return corpus.StreamOf(snap, 0), nil
		}
		return nil, nil
	}
	sr, err := p.RunStudyStream(ctx, src, cfg)
	if err != nil {
		return nil, err
	}
	if got := len(sr.Snapshots()); got != len(d.order) {
		return nil, fmt.Errorf("study folded %d of %d snapshots", got, len(d.order))
	}
	return sr, nil
}

// storeOf freezes a study into a footprint store exactly as offnetmap
// -store does: the latest snapshot's IP-to-AS table answers IP queries.
func storeOf(p *core.Pipeline, sr *core.StudyResult) (*footstore.Store, error) {
	snaps := sr.Snapshots()
	if len(snaps) == 0 {
		return nil, fmt.Errorf("empty study")
	}
	src, _ := p.Mapper(snaps[len(snaps)-1]).(footstore.PrefixSource)
	return footstore.FromStudy(sr, src)
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// growthTable cuts offnetmap -growth's Fig-3 table out of its stdout:
// from the header row to the first line after it that is not a row.
func growthTable(stdout []byte) []byte {
	i := bytes.Index(stdout, []byte("snap "))
	if i < 0 {
		return nil
	}
	table := stdout[i:]
	if j := bytes.Index(table, []byte("\nwrote ")); j >= 0 {
		table = table[:j+1]
	}
	return table
}
