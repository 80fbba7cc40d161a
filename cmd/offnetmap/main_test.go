package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"offnetscope/internal/corpus"
	"offnetscope/internal/footstore"
	"offnetscope/internal/hg"
	"offnetscope/internal/obs"
	"offnetscope/internal/timeline"
)

// TestWorldgenOffnetmapRoundTrip drives the two CLIs end to end: generate
// a small corpus to disk, then map off-nets from it — including the
// longitudinal mode. (The worldgen run() lives in the other package, so
// the corpus is produced by invoking the same code path it wraps.)
func TestOffnetmapOverGeneratedCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a corpus on disk")
	}
	dir := cleanCorpus.corpus(t)

	var out strings.Builder
	err := run(context.Background(), []string{"-corpus", dir, "-snapshot", "2021-04", "-list", "google"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"corpus rapid7/2021-04", "Google", "hosting ASes"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}

	out.Reset()
	if err := run(context.Background(), []string{"-corpus", dir, "-growth"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "2021-04") {
		t.Errorf("growth output missing final snapshot:\n%s", out.String())
	}

	// Error paths.
	if err := run(context.Background(), []string{"-corpus", dir, "-snapshot", "1999-01"}, &out); err == nil {
		t.Error("invalid snapshot should fail")
	}
	if err := run(context.Background(), []string{"-corpus", dir, "-list", "nosuchhg"}, &out); err == nil {
		t.Error("unknown hypergiant should fail")
	}
	if err := run(context.Background(), []string{}, &out); err == nil {
		t.Error("missing -corpus should fail")
	}
	if err := run(context.Background(), []string{"-corpus", t.TempDir()}, &out); err == nil {
		t.Error("missing manifest should fail")
	}
}

// worldgenEquivalent writes a three-snapshot Rapid7 corpus with the
// libraries cmd/worldgen wraps: manifest + NDJSON corpus layout, the
// CLI contract offnetmap reads.
func worldgenEquivalent(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"),
		[]byte(`{"seed": 11, "scale": 0.02, "vendors": "rapid7"}`), 0o644); err != nil {
		return err
	}
	return writeSnapshots(dir, 11, 0.02)
}

// TestOffnetmapStoreFlag drives the producer side of the serving path:
// -store freezes the inferred footprints into a footstore file that
// re-opens with the same content, in both growth and single-snapshot
// modes.
func TestOffnetmapStoreFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a corpus on disk")
	}
	last, _ := timeline.FromLabel("2021-04")

	growth := cleanCorpus.baseline(t)
	if growth.err != nil {
		t.Fatal(growth.err)
	}
	if !strings.Contains(growth.out, "wrote store") {
		t.Errorf("missing store confirmation:\n%s", growth.out)
	}
	st, err := footstore.Open(growth.store)
	if err != nil {
		t.Fatal(err)
	}
	if st.Latest() != last || len(st.Snapshots()) != 3 {
		t.Errorf("growth store covers %v", st.Snapshots())
	}
	fp, ok := st.Footprint(hg.Google, last)
	if !ok || len(fp) == 0 {
		t.Fatalf("growth store has no Google footprint at %s", last)
	}
	if st.Stats().Prefixes == 0 {
		t.Error("store is missing the IP-to-AS prefix table")
	}

	// The single-snapshot store must agree with the growth store at the
	// shared snapshot.
	singlePath := filepath.Join(t.TempDir(), "single.fst")
	var out strings.Builder
	if err := run(context.Background(), []string{"-corpus", cleanCorpus.corpus(t), "-snapshot", "2021-04", "-store", singlePath}, &out); err != nil {
		t.Fatal(err)
	}
	single, err := footstore.Open(singlePath)
	if err != nil {
		t.Fatal(err)
	}
	sfp, ok := single.Footprint(hg.Google, last)
	if !ok || !reflect.DeepEqual(fp, sfp) {
		t.Errorf("single-snapshot footprint diverges: %v vs %v", sfp, fp)
	}
}

// TestOffnetmapMetricsDeterministic pins the §7 observability contract:
// the funnel/corpus/checkpoint counters written by -metrics are byte-
// identical across repeated runs and across -jobs settings — only the
// *_ns timing histograms may differ. It also checks the -v funnel
// summary names the pipeline stages.
func TestOffnetmapMetricsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a corpus on disk")
	}
	dir := cleanCorpus.corpus(t)
	metricsDir := t.TempDir()

	// counters re-marshals only the deterministic part of a metrics file.
	counters := func(path string) []byte {
		t.Helper()
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		snap, err := obs.ParseSnapshot(raw)
		if err != nil {
			t.Fatalf("parsing %s: %v", path, err)
		}
		out, err := json.Marshal(snap.Counters)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}

	runOnce := func(name string, extra ...string) ([]byte, string) {
		t.Helper()
		path := filepath.Join(metricsDir, name)
		var out strings.Builder
		args := append([]string{"-corpus", dir, "-growth", "-metrics", path, "-v"}, extra...)
		err := run(context.Background(), args, &out)
		if err != nil {
			t.Fatal(err)
		}
		return counters(path), out.String()
	}

	seq1, text := runOnce("m1.json", "-jobs", "1")
	seq2, _ := runOnce("m2.json", "-jobs", "1")
	par, _ := runOnce("m4.json", "-jobs", "4")
	if !reflect.DeepEqual(seq1, seq2) {
		t.Errorf("counters differ across identical runs:\n%s\n%s", seq1, seq2)
	}
	if !reflect.DeepEqual(seq1, par) {
		t.Errorf("counters differ between -jobs 1 and -jobs 4:\n%s\n%s", seq1, par)
	}

	for _, want := range []string{"pipeline funnel:", "cert IPs seen", "HG cert matches",
		"header-confirmed IPs", "wrote metrics"} {
		if !strings.Contains(text, want) {
			t.Errorf("-v output missing %q:\n%s", want, text)
		}
	}

	// Sanity: the funnel actually counted work.
	snapRaw, err := os.ReadFile(filepath.Join(metricsDir, "m1.json"))
	if err != nil {
		t.Fatal(err)
	}
	snap, err := obs.ParseSnapshot(snapRaw)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Counter("funnel.snapshots_inferred") != 3 {
		t.Errorf("snapshots_inferred = %d, want 3", snap.Counter("funnel.snapshots_inferred"))
	}
	if snap.Counter("funnel.certs_seen") == 0 || snap.Counter("funnel.confirmed_ips") == 0 {
		t.Errorf("funnel empty: %v", snap.Counters)
	}
	// The study probes every timeline month; only the last three exist
	// on disk, the rest count as missing rather than errors.
	if reads, miss := snap.Counter("corpus.reads"), snap.Counter("corpus.read_missing"); reads-miss != 3 {
		t.Errorf("corpus reads=%d missing=%d, want 3 successful", reads, miss)
	}
}

// TestOffnetmapWithDatasetFiles exercises the on-disk dataset path: the
// pipeline consumes parsed as-org and RIB files instead of the
// regenerated world's structures, and the inference must not change.
func TestOffnetmapWithDatasetFiles(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a corpus on disk")
	}
	dir := copyCorpus(t, cleanCorpus)
	var plain strings.Builder
	if err := run(context.Background(), []string{"-corpus", dir, "-snapshot", "2021-04"}, &plain); err != nil {
		t.Fatal(err)
	}

	// Write the dataset files the same way worldgen -datasets does.
	if err := writeDatasets(dir, 11, 0.02); err != nil {
		t.Fatal(err)
	}
	var withDS strings.Builder
	if err := run(context.Background(), []string{"-corpus", dir, "-snapshot", "2021-04"}, &withDS); err != nil {
		t.Fatal(err)
	}
	if plain.String() != withDS.String() {
		t.Errorf("dataset-file path diverges from world path:\n--- world ---\n%s--- files ---\n%s",
			plain.String(), withDS.String())
	}

	// A dataset file that exists but cannot be used fails its month
	// instead of silently falling back to one collector's RIB (§A.1
	// merges both) or to the regenerated world. -growth treats the month
	// like a corrupt corpus month.
	ribPath := filepath.Join(dir, "datasets", "rib", "routeviews_2021-04.txt")
	orgPath := filepath.Join(dir, "datasets", "as-org.txt")
	appendGarbage := func(path string) error {
		f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
		if err != nil {
			return err
		}
		if _, err := f.WriteString("garbage-line\n"); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	// A symlink to itself exists, but opening it fails (ELOOP).
	symlinkLoop := func(path string) error {
		if err := os.Remove(path); err != nil {
			return err
		}
		return os.Symlink(filepath.Base(path), path)
	}
	for _, tc := range []struct {
		name   string
		path   string // the damaged file, which the run must name
		damage func(path string) error
		growth int // exit code of a tolerant -growth run
	}{
		{"garbage RIB line", ribPath, appendGarbage, exitReducedCoverage},
		{"one collector's RIB", ribPath, os.Remove, exitReducedCoverage},
		{"unopenable RIB", ribPath, symlinkLoop, exitReducedCoverage},
		{"unopenable as-org", orgPath, symlinkLoop, exitFailure},
	} {
		t.Run(tc.name, func(t *testing.T) {
			orig, err := os.ReadFile(tc.path)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() {
				os.Remove(tc.path)
				if err := os.WriteFile(tc.path, orig, 0o644); err != nil {
					t.Fatal(err)
				}
			})
			if err := tc.damage(tc.path); err != nil {
				t.Fatal(err)
			}
			for _, c := range []struct {
				args []string
				code int
			}{
				{[]string{"-snapshot", "2021-04"}, exitFailure},
				{[]string{"-growth"}, tc.growth},
				{[]string{"-growth", "-tolerant=false"}, exitFailure},
			} {
				var out strings.Builder
				err := run(context.Background(), append([]string{"-corpus", dir}, c.args...), &out)
				if code := exitStatus(err); code != c.code {
					t.Errorf("%v: exit %d (%v), want %d\n%s", c.args, code, err, c.code, out.String())
				}
				msg := out.String()
				if err != nil {
					msg += err.Error()
				}
				if !strings.Contains(msg, tc.path) {
					t.Errorf("%v: run does not name %s:\n%s", c.args, tc.path, msg)
				}
				if c.code == exitReducedCoverage && !strings.Contains(msg, "reduced coverage: 1 month(s) dropped for corruption: 2021-04") {
					t.Errorf("%v: no reduced-coverage note:\n%s", c.args, msg)
				}
			}
		})
	}
}

// TestGrowthDamagedMonths damages files in two months of a corpus: the
// first month's certificate and HTTP files and the last month's HTTPS
// file, each cut short inside its gzip stream. A damaged month is read
// once — the fixed bytes would fail a second read the same way — and
// every run names the same file for it: the engine's certs → https →
// http precedence, never whichever file consumer failed first. A strict
// run fails with the earliest damaged month's error at any -jobs, and
// stops there: it checkpoints no later month.
func TestGrowthDamagedMonths(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a corpus on disk")
	}
	dir := copyCorpus(t, cleanCorpus)
	all := timeline.All()
	first, last := all[len(all)-3], all[len(all)-1]
	damaged := func(s timeline.Snapshot, name string) string {
		return filepath.Join(corpus.Dir(dir, corpus.Rapid7, s), name)
	}
	firstCerts, firstHTTP := damaged(first, "certs.ndjson.gz"), damaged(first, "http_headers.ndjson.gz")
	lastHTTPS := damaged(last, "https_headers.ndjson.gz")
	for _, path := range []string{firstCerts, firstHTTP, lastHTTPS} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data[:len(data)*2/3], 0o644); err != nil {
			t.Fatal(err)
		}
	}

	metricsPath := filepath.Join(t.TempDir(), "metrics.json")
	var out strings.Builder
	err := run(context.Background(), []string{"-corpus", dir, "-growth", "-metrics", metricsPath}, &out)
	if code := exitStatus(err); code != exitReducedCoverage {
		t.Fatalf("tolerant run: exit %d (%v), want %d\n%s", code, err, exitReducedCoverage, out.String())
	}
	raw, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := obs.ParseSnapshot(raw)
	if err != nil {
		t.Fatal(err)
	}
	if n := snap.Counter("corpus.read_errors"); n != 2 {
		t.Errorf("corpus.read_errors = %d, want 2: each damaged month read once", n)
	}
	var warnings []string
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.HasPrefix(line, "warning: dropping corpus") {
			warnings = append(warnings, line)
		}
	}
	if len(warnings) != 2 || !strings.Contains(warnings[0], firstCerts) || !strings.Contains(warnings[1], lastHTTPS) {
		t.Errorf("tolerant run's warnings name %q, want %s then %s", warnings, firstCerts, lastHTTPS)
	}

	var strictMsg string
	for _, jobs := range []string{"1", "2"} {
		for i := 0; i < 3; i++ {
			var out strings.Builder
			ck := t.TempDir()
			err := run(context.Background(), []string{"-corpus", dir, "-growth", "-tolerant=false", "-jobs", jobs, "-checkpoint", ck}, &out)
			if code := exitStatus(err); code != exitFailure {
				t.Fatalf("strict run at -jobs %s: exit %d (%v), want %d\n%s", jobs, code, err, exitFailure, out.String())
			}
			// The first month is damaged, so every entry would follow it.
			if entries, _ := filepath.Glob(filepath.Join(ck, "*.ckpt")); len(entries) != 0 {
				t.Errorf("strict run at -jobs %s checkpointed %v after its first damaged month", jobs, entries)
			}
			if strictMsg == "" {
				strictMsg = err.Error()
				if !strings.Contains(strictMsg, firstCerts) {
					t.Errorf("strict run names %q, want %s", strictMsg, firstCerts)
				}
			} else if err.Error() != strictMsg {
				t.Errorf("strict run %d at -jobs %s: %q, want the first run's %q", i, jobs, err.Error(), strictMsg)
			}
		}
	}
}

// TestOffnetmapUsageErrors pins the flag validation: each bad value is
// a usage error (exit 2) raised before any corpus is read — the corpus
// directory here is empty, so reaching the read would fail with exit 1
// instead. A non-finite or above-1 -max-bad would otherwise disable the
// error budget: no skip count ever exceeds NaN or Inf times the total.
func TestOffnetmapUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"jobs zero", []string{"-jobs", "0"}},
		{"max-bad NaN", []string{"-max-bad", "NaN"}},
		{"max-bad Inf", []string{"-max-bad", "Inf"}},
		{"max-bad above one", []string{"-max-bad", "1.5"}},
		// A value the engine would replace: a negative budget runs with
		// zero tolerance.
		{"max-bad negative", []string{"-max-bad", "-0.5"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out strings.Builder
			err := run(context.Background(), append([]string{"-corpus", t.TempDir(), "-growth"}, tc.args...), &out)
			if code := exitStatus(err); code != exitUsage {
				t.Fatalf("exit %d (%v), want %d", code, err, exitUsage)
			}
		})
	}
}

// TestDominantReasonTieBreak pins the corruption class -v names: the
// largest corpus.skip.* counter, the lexicographically smallest reason
// among equal counts, whatever the map iteration order, and "none" when
// nothing was skipped. Counters under other prefixes never compete.
func TestDominantReasonTieBreak(t *testing.T) {
	for i := 0; i < 100; i++ {
		// A fresh map each round: a new iteration order.
		s := obs.Snapshot{Counters: map[string]int64{
			"corpus.skip.json":         1,
			"corpus.skip.ip":           1,
			"corpus.skip.decode":       1,
			"funnel.drop.expired_cert": 9,
		}}
		if got := dominant(s, "corpus.skip."); got != "decode" {
			t.Fatalf("round %d: dominant = %q, want decode", i, got)
		}
	}
	for _, tc := range []struct {
		counters map[string]int64
		want     string
	}{
		{map[string]int64{"corpus.skip.zz": 2, "corpus.skip.aa": 2}, "aa"},
		{map[string]int64{"corpus.skip.json": 3, "corpus.skip.ip": 1}, "json"},
		{map[string]int64{"funnel.drop.expired_cert": 4}, "none"},
		{nil, "none"},
	} {
		if got := dominant(obs.Snapshot{Counters: tc.counters}, "corpus.skip."); got != tc.want {
			t.Errorf("dominant(%v) = %q, want %q", tc.counters, got, tc.want)
		}
	}
}
