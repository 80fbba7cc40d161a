package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"offnetscope/internal/astopo"
	"offnetscope/internal/bgpsim"
	"offnetscope/internal/corpus"
	"offnetscope/internal/scanners"
	"offnetscope/internal/timeline"
	"offnetscope/internal/worldsim"
)

// The seed-11 corpus the end-to-end tests read is built once per test
// binary, as is its 1%-corrupted copy, and each one's uninterrupted
// -growth baseline runs once. Tests only read a fixture; a test that
// writes into a corpus works on copyCorpus.

// fixtureRoot holds the fixtures; TestMain creates and removes it.
var fixtureRoot string

// A fixture is a corpus built on first use.
type fixture struct {
	name  string
	build func(dir string) error

	once sync.Once
	dir  string
	err  error

	baseOnce sync.Once
	base     baseline
}

// baseline is an uninterrupted `-growth -store` run over a fixture.
type baseline struct {
	store string // the store it wrote
	out   string // its report
	err   error  // run's error: nil, or exit 3 on reduced coverage
}

var (
	cleanCorpus = &fixture{name: "clean", build: worldgenEquivalent}
	// corruptedCorpus is the clean corpus with ~1% of its record lines
	// bit-flipped; corruptedLines counts them.
	corruptedCorpus = &fixture{name: "corrupted", build: func(dir string) error {
		src, err := cleanCorpus.path()
		if err != nil {
			return err
		}
		if err := copyDir(src, dir); err != nil {
			return err
		}
		if corruptedLines, err = corruptCorpus(dir, 0xc0ffee, 0.01); err == nil && corruptedLines == 0 {
			err = errors.New("corruption pass touched no lines; rate too low for this corpus")
		}
		return err
	}}
	corruptedLines int
)

func (f *fixture) path() (string, error) {
	f.once.Do(func() {
		f.dir = filepath.Join(fixtureRoot, f.name)
		f.err = f.build(f.dir)
	})
	return f.dir, f.err
}

// corpus returns the fixture's directory; the test must not write to it.
func (f *fixture) corpus(t *testing.T) string {
	t.Helper()
	dir, err := f.path()
	if err != nil {
		t.Fatalf("building the %s corpus: %v", f.name, err)
	}
	return dir
}

// baseline returns the fixture's uninterrupted -growth run.
func (f *fixture) baseline(t *testing.T) baseline {
	t.Helper()
	dir := f.corpus(t)
	f.baseOnce.Do(func() {
		f.base.store = filepath.Join(fixtureRoot, f.name+".fst")
		var out strings.Builder
		f.base.err = run(context.Background(), []string{"-corpus", dir, "-growth", "-store", f.base.store}, &out)
		f.base.out = out.String()
	})
	return f.base
}

// copyCorpus copies a fixture into a fresh directory the test may
// write into.
func copyCorpus(t *testing.T, f *fixture) string {
	t.Helper()
	dst := t.TempDir()
	if err := copyDir(f.corpus(t), dst); err != nil {
		t.Fatal(err)
	}
	return dst
}

func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path) // WalkDir only visits paths under src
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
}

// writeSnapshots generates a small Rapid7 corpus on disk: the last three
// snapshots of the study window (enough for the growth mode to print a
// short series).
func writeSnapshots(dir string, seed uint64, scale float64) error {
	w, err := worldsim.New(worldsim.Config{Seed: seed, Scale: scale})
	if err != nil {
		return err
	}
	p := scanners.Rapid7Profile()
	for s := timeline.Snapshot(timeline.Count() - 3); s < timeline.Snapshot(timeline.Count()); s++ {
		snap := scanners.Scan(w, p, s)
		if snap == nil {
			continue
		}
		if err := corpus.Write(dir, snap); err != nil {
			return err
		}
	}
	return nil
}

// writeDatasets mirrors worldgen's -datasets output for the test corpus.
func writeDatasets(dir string, seed uint64, scale float64) error {
	w, err := worldsim.New(worldsim.Config{Seed: seed, Scale: scale})
	if err != nil {
		return err
	}
	dsDir := filepath.Join(dir, "datasets")
	if err := os.MkdirAll(filepath.Join(dsDir, "rib"), 0o755); err != nil {
		return err
	}
	writeFile := func(path string, fn func(io.Writer) error) error {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := fn(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	if err := writeFile(filepath.Join(dsDir, "as-org.txt"), func(f io.Writer) error {
		return astopo.WriteOrgs(f, w.Orgs())
	}); err != nil {
		return err
	}
	for s := timeline.Snapshot(timeline.Count() - 3); s < timeline.Snapshot(timeline.Count()); s++ {
		for _, col := range []bgpsim.Collector{bgpsim.RouteViews, bgpsim.RIPERIS} {
			rib := bgpsim.BuildRIB(w.Graph(), w.Alloc(), col, s, bgpsim.DefaultNoise(), seed)
			name := fmt.Sprintf("%s_%s.txt", col, s.Label())
			if err := writeFile(filepath.Join(dsDir, "rib", name), func(f io.Writer) error {
				return bgpsim.WriteRIB(f, rib)
			}); err != nil {
				return err
			}
		}
	}
	return nil
}
