package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"offnetscope/internal/chaos"
)

// The crash-equivalence suite runs offnetmap as a real subprocess and
// signals it at checkpoint counts (chaos.Harness), so SIGKILL lands
// mid-run exactly as an OOM-kill or power loss would. The test binary
// doubles as the CLI when crashHelperEnv is set.

const crashHelperEnv = "OFFNETMAP_CRASH_HELPER"

func TestMain(m *testing.M) {
	if os.Getenv(crashHelperEnv) == "1" {
		main() // exits; its signal handling makes SIGINT flush a final checkpoint
	}
	var err error
	if fixtureRoot, err = os.MkdirTemp("", "offnetmap-test-*"); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(fixtureRoot)
	os.Exit(code)
}

// crashResumeScenario is the tentpole proof: a subprocess run of the
// fixture is SIGKILLed before its first checkpoint entry, SIGKILLed
// after one, interrupted with SIGINT after two, and resumed to the end;
// its store must be byte-identical to the uninterrupted baseline's.
func crashResumeScenario(t *testing.T, f *fixture) (ckDir string) {
	t.Helper()
	base := f.baseline(t)
	if base.err != nil && exitStatus(base.err) != exitReducedCoverage {
		t.Fatalf("baseline run: %v\n%s", base.err, base.out)
	}
	work := t.TempDir()
	crashPath := filepath.Join(work, "crash.fst")
	ckDir = filepath.Join(work, "ck")
	h := &chaos.Harness{
		Env:  crashHelperEnv + "=1",
		Args: []string{"-corpus", f.corpus(t), "-growth", "-store", crashPath, "-checkpoint", ckDir, "-resume"},
		Progress: func() (int, error) {
			entries, err := filepath.Glob(filepath.Join(ckDir, "snap-*.ckpt"))
			return len(entries), err
		},
	}
	launches, err := h.Run(
		chaos.Kill{At: 0, Signal: syscall.SIGKILL},
		chaos.Kill{At: 1, Signal: syscall.SIGKILL},
		chaos.Kill{At: 2, Signal: syscall.SIGINT},
	)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("kill coverage: %s", chaos.Coverage(launches))
	if k := launches[0]; !k.Sent || k.Left != 0 {
		t.Errorf("first SIGKILL left %d checkpoint entries (sent %v), want 0", k.Left, k.Sent)
	}
	if k := launches[1]; !k.Sent || k.Left < 1 {
		t.Errorf("second SIGKILL left %d checkpoint entries (sent %v), want at least 1", k.Left, k.Sent)
	}
	if k := launches[2]; !k.Sent || k.Code != exitFailure || k.Left < k.SentAt || !strings.Contains(k.Output, "rerun with -resume") {
		t.Errorf("SIGINT at %d entries (sent %v): exit %d with %d entries left, want exit %d keeping every entry:\n%s",
			k.SentAt, k.Sent, k.Code, k.Left, exitFailure, k.Output)
	}
	final := launches[3]
	if final.Code != exitOK && final.Code != exitReducedCoverage {
		t.Fatalf("final run exited %d:\n%s", final.Code, final.Output)
	}
	if !strings.Contains(final.Output, "resume: reused") {
		t.Errorf("resumed run reloaded no checkpoints:\n%s", final.Output)
	}

	want, err := os.ReadFile(base.store)
	if err != nil {
		t.Fatal(err)
	}
	crash, err := os.ReadFile(crashPath)
	if err != nil {
		t.Fatalf("interrupted+resumed run never wrote its store: %v", err)
	}
	if !bytes.Equal(want, crash) {
		t.Fatalf("resumed store differs from uninterrupted baseline (%d vs %d bytes)", len(crash), len(want))
	}
	return ckDir
}

func TestCrashResumeEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("kill/resume e2e is not -short")
	}
	ckDir := crashResumeScenario(t, cleanCorpus)

	// A stale manifest must be rejected, not silently mixed in: resume
	// the checkpoints against a copy of the corpus with one more file.
	stale := copyCorpus(t, cleanCorpus)
	if err := os.WriteFile(filepath.Join(stale, "extra.txt"), []byte("new corpus content"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	err := run(context.Background(), []string{"-corpus", stale, "-growth", "-checkpoint", ckDir, "-resume"}, &out)
	if code := exitStatus(err); code != exitFailure {
		t.Fatalf("stale-manifest resume exited %d, want %d:\n%s", code, exitFailure, out.String())
	}
	if !strings.Contains(err.Error(), "manifest") {
		t.Errorf("stale-manifest rejection message unclear: %v", err)
	}
}

func TestCrashResumeEquivalenceUnderChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("kill/resume e2e is not -short")
	}
	crashResumeScenario(t, corruptedCorpus)
}

// TestGrowthJobsByteIdentical pins the parallel runner's determinism:
// worker count must never leak into the output.
func TestGrowthJobsByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the growth study twice")
	}
	base := cleanCorpus.baseline(t)
	if base.err != nil {
		t.Fatalf("-jobs 1: %v\n%s", base.err, base.out)
	}
	path := filepath.Join(t.TempDir(), "out.fst")
	var out strings.Builder
	if err := run(context.Background(), []string{"-corpus", cleanCorpus.corpus(t), "-growth", "-jobs", "4", "-store", path}, &out); err != nil {
		t.Fatalf("-jobs 4: %v\n%s", err, out.String())
	}
	stores := make([][]byte, 2)
	outs := make([]string, 2)
	for i, r := range []struct{ store, out string }{{base.store, base.out}, {path, out.String()}} {
		raw, err := os.ReadFile(r.store)
		if err != nil {
			t.Fatal(err)
		}
		// The report embeds the store path; drop that line so the
		// comparison covers the series table itself.
		var lines []string
		for _, l := range strings.Split(r.out, "\n") {
			if !strings.HasPrefix(l, "wrote store ") {
				lines = append(lines, l)
			}
		}
		stores[i], outs[i] = raw, strings.Join(lines, "\n")
	}
	if !bytes.Equal(stores[0], stores[1]) {
		t.Fatalf("-jobs 4 store differs from -jobs 1 (%d vs %d bytes)", len(stores[1]), len(stores[0]))
	}
	if outs[0] != outs[1] {
		t.Fatalf("-jobs 4 report differs from -jobs 1:\n--- jobs 1 ---\n%s--- jobs 4 ---\n%s", outs[0], outs[1])
	}
}
