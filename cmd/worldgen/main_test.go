package main

import (
	"bytes"
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"offnetscope/internal/corpus"
	"offnetscope/internal/timeline"
)

func TestWorldgenWritesCorpusAndManifest(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a corpus on disk")
	}
	dir := t.TempDir()
	var out strings.Builder
	err := run([]string{
		"-out", dir, "-seed", "5", "-scale", "0.02",
		"-vendors", "rapid7", "-from", "2020-10", "-to", "2021-04",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "wrote") {
		t.Errorf("missing summary line:\n%s", out.String())
	}

	// Manifest round-trips.
	data, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	var mf Manifest
	if err := json.Unmarshal(data, &mf); err != nil {
		t.Fatal(err)
	}
	if mf.Seed != 5 || mf.Scale != 0.02 {
		t.Errorf("manifest = %+v", mf)
	}

	// Each requested snapshot is readable.
	for _, label := range []string{"2020-10", "2021-01", "2021-04"} {
		s, _ := timeline.FromLabel(label)
		snap, err := corpus.Read(dir, corpus.Rapid7, s)
		if err != nil {
			t.Fatalf("reading %s: %v", label, err)
		}
		if len(snap.Certs) == 0 || len(snap.HTTP) == 0 || len(snap.HTTPS) == 0 {
			t.Errorf("%s: empty corpus parts (%d/%d/%d)", label, len(snap.Certs), len(snap.HTTP), len(snap.HTTPS))
		}
	}
	// No snapshots outside the window.
	if _, err := corpus.Read(dir, corpus.Rapid7, 0); err == nil {
		t.Error("2013-10 should not exist in this corpus")
	}
}

func TestWorldgenRejectsBadFlags(t *testing.T) {
	var out strings.Builder
	if err := run([]string{}, &out); err == nil {
		t.Error("missing -out should fail")
	}
	if err := run([]string{"-out", t.TempDir(), "-from", "x"}, &out); err == nil {
		t.Error("invalid -from should fail")
	}
	if err := run([]string{"-out", t.TempDir(), "-from", "2021-04", "-to", "2013-10"}, &out); err == nil {
		t.Error("inverted range should fail")
	}
	if err := run([]string{"-out", t.TempDir(), "-vendors", "nsa"}, &out); err == nil {
		t.Error("unknown vendor should fail")
	}
}

func TestWorldgenDatasets(t *testing.T) {
	if testing.Short() {
		t.Skip("generates datasets on disk")
	}
	// Two runs with the same flags must write the same bytes: corpus,
	// manifest and datasets.
	args := []string{"-seed", "5", "-scale", "0.005",
		"-vendors", "rapid7", "-from", "2020-10", "-to", "2021-04", "-datasets"}
	var trees [2]map[string][]byte
	for i := range trees {
		dir := t.TempDir()
		var out strings.Builder
		if err := run(append([]string{"-out", dir}, args...), &out); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out.String(), "wrote datasets") {
			t.Errorf("missing dataset summary:\n%s", out.String())
		}
		trees[i] = readTree(t, dir)
	}
	for name, data := range trees[0] {
		if other, ok := trees[1][name]; !ok || !bytes.Equal(data, other) {
			t.Errorf("%s differs between two runs with the same flags", name)
		}
	}
	if len(trees[0]) != len(trees[1]) {
		t.Errorf("runs wrote %d and %d files", len(trees[0]), len(trees[1]))
	}
	if _, ok := trees[0]["manifest.json"]; !ok {
		t.Error("missing manifest.json")
	}

	// datasets/ holds exactly what offnetmap reads: the AS-to-organization
	// file and both collectors' RIBs for each month.
	want := []string{"datasets/as-org.txt"}
	for _, month := range []string{"2020-10", "2021-01", "2021-04"} {
		want = append(want, "datasets/rib/ripe-ris_"+month+".txt", "datasets/rib/routeviews_"+month+".txt")
	}
	var got []string
	for name := range trees[0] {
		if strings.HasPrefix(name, "datasets/") {
			got = append(got, name)
		}
	}
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Errorf("datasets/ holds %v, want %v", got, want)
	}
}

// readTree returns every regular file under dir by its slash-separated
// path relative to dir.
func readTree(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	files := make(map[string][]byte)
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		files[filepath.ToSlash(rel)] = data
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}
