package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"offnetscope/internal/chaos"
	"offnetscope/internal/footstore"
	"offnetscope/internal/hg"
	"offnetscope/internal/rng"
)

// corruptCorpus rewrites every NDJSON file under dir, hitting each
// record line with probability rate and mangling the selected lines
// with seeded bit flips. Corruption happens at record granularity —
// inside the gzip payload, not the compressed bytes — so damage stays
// local to individual lines the way real partial-transfer or
// encoding bugs do, rather than invalidating whole-file checksums.
// Returns the number of corrupted lines.
func corruptCorpus(dir string, seed uint64, rate float64) (int, error) {
	corrupted := 0
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() || !strings.HasSuffix(path, ".ndjson.gz") {
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		g := rng.New(seed).Fork("corrupt:" + rel)
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		gz, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return err
		}
		raw, err := io.ReadAll(gz)
		if err != nil {
			return err
		}
		lines := bytes.Split(bytes.TrimRight(raw, "\n"), []byte("\n"))
		for i, line := range lines {
			if g.Float64() >= rate || len(line) == 0 {
				continue
			}
			lines[i] = chaos.Corrupt(line, chaos.Config{
				Seed:        seed,
				BitFlipRate: 0.03,
			}, rel)
			corrupted++
		}
		var buf bytes.Buffer
		gw := gzip.NewWriter(&buf)
		if _, err := gw.Write(append(bytes.Join(lines, []byte("\n")), '\n')); err != nil {
			return err
		}
		if err := gw.Close(); err != nil {
			return err
		}
		return os.WriteFile(path, buf.Bytes(), 0o644)
	})
	return corrupted, err
}

// TestChaosDegradedGrowthRun is the robustness capstone: seed ~1% of
// the corpus records with bit-flip corruption, run the full
// longitudinal study, and require that it (a) completes, (b) reports
// the skips it took, and (c) lands within tolerance of the clean run's
// inferred footprints.
func TestChaosDegradedGrowthRun(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos e2e is not -short")
	}
	clean := cleanCorpus.baseline(t)
	if clean.err != nil {
		t.Fatalf("baseline run: %v\n%s", clean.err, clean.out)
	}
	degraded := corruptedCorpus.baseline(t)
	t.Logf("corrupted %d corpus lines", corruptedLines)
	if degraded.err != nil {
		t.Fatalf("degraded run aborted instead of completing: %v\n%s", degraded.err, degraded.out)
	}
	if !strings.Contains(degraded.out, "skipped") {
		t.Errorf("degraded run output reports no skips:\n%s", degraded.out)
	}

	// Strict mode must refuse the same corpus.
	var strictOut strings.Builder
	if err := run(context.Background(), []string{"-corpus", corruptedCorpus.corpus(t), "-growth", "-tolerant=false"}, &strictOut); err == nil {
		t.Error("strict run accepted the corrupted corpus")
	}

	base, err := footstore.Open(clean.store)
	if err != nil {
		t.Fatal(err)
	}
	corr, err := footstore.Open(degraded.store)
	if err != nil {
		t.Fatal(err)
	}
	// Losing ~1% of records may drop a marginal AS below a confirmation
	// threshold, but the inferred footprints must stay close.
	for _, id := range []hg.ID{hg.Google, hg.Facebook, hg.Akamai} {
		for _, s := range base.Snapshots() {
			bases, _ := base.Footprint(id, s)
			if _, ok := corr.SnapshotIndex(s); !ok {
				t.Errorf("%s missing from degraded store (month dropped?)", s.Label())
				continue
			}
			corrs, _ := corr.Footprint(id, s)
			tol := len(bases) / 10
			if tol < 2 {
				tol = 2
			}
			diff := len(bases) - len(corrs)
			if diff < 0 {
				diff = -diff
			}
			if diff > tol {
				t.Errorf("%s %s: footprint %d vs clean %d (tolerance %d)",
					id, s.Label(), len(corrs), len(bases), tol)
			}
		}
	}

	var buf strings.Builder
	logFootprints := func(st *footstore.Store, name string) {
		for _, s := range st.Snapshots() {
			fmt.Fprintf(&buf, "%s %s:", name, s.Label())
			for _, id := range []hg.ID{hg.Google, hg.Facebook, hg.Akamai} {
				fp, _ := st.Footprint(id, s)
				fmt.Fprintf(&buf, " %s=%d", id, len(fp))
			}
			buf.WriteString("\n")
		}
	}
	logFootprints(base, "clean")
	logFootprints(corr, "degraded")
	t.Log("\n" + buf.String())
}
