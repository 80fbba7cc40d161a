package chaos

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// With childEnv set, the test binary is the harness's child: it writes
// files step-0, step-1, … into args[0], one every 5ms, exits 0 after
// args[1] files, and exits 3 on SIGINT.
const childEnv = "CHAOS_KILL_CHILD"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt)
		n, _ := strconv.Atoi(os.Args[2])
		for i := 0; i < n; i++ {
			select {
			case <-sig:
				os.Exit(3)
			case <-time.After(5 * time.Millisecond):
			}
			if err := os.WriteFile(filepath.Join(os.Args[1], fmt.Sprint("step-", i)), nil, 0o644); err != nil {
				os.Exit(1)
			}
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// writer is a harness whose child writes n files into a fresh
// directory; progress is the number of files written.
func writer(t *testing.T, n int) *Harness {
	dir := t.TempDir()
	return &Harness{
		Env:  childEnv + "=1",
		Args: []string{dir, strconv.Itoa(n)},
		Progress: func() (int, error) {
			ents, err := os.ReadDir(dir)
			return len(ents), err
		},
	}
}

// Point 0 lands before the child's first write; the unsignalled launch
// Run adds then runs to the end.
func TestKillPointZeroLandsBeforeFirstWrite(t *testing.T) {
	ls, err := writer(t, 3).Run(Kill{At: 0, Signal: syscall.SIGKILL})
	if err != nil {
		t.Fatal(err)
	}
	t.Log(Coverage(ls))
	if len(ls) != 2 || !ls[0].Sent || ls[0].SentAt != 0 || ls[0].Left != 0 || ls[0].Code != -1 {
		t.Fatalf("launches %+v, want SIGKILL sent at 0 leaving 0 files, then a final run", ls)
	}
	if end := ls[1]; end.Sent || end.Left != 3 || end.Code != 0 {
		t.Errorf("final run %+v, want 3 files and exit 0", end)
	}
}

// A child that finishes before reaching a plan point is reported as
// missed, with its own exit code.
func TestKillMissedPointIsReported(t *testing.T) {
	l, err := writer(t, 2).Launch(Kill{At: 5, Signal: syscall.SIGKILL})
	if err != nil {
		t.Fatal(err)
	}
	if l.Sent || l.Left != 2 || l.Code != 0 || !strings.Contains(Coverage([]Launch{l}), "missed") {
		t.Fatalf("launch %+v (%s), want a missed point, 2 files and exit 0", l, Coverage([]Launch{l}))
	}
}

// A SIGINT'd child's exit code comes back.
func TestKillSIGINTExitCode(t *testing.T) {
	l, err := writer(t, 1000).Launch(Kill{At: 2, Signal: syscall.SIGINT})
	if err != nil {
		t.Fatal(err)
	}
	if !l.Sent || l.SentAt < 2 || l.Left < l.SentAt || l.Code != 3 {
		t.Fatalf("launch %+v, want SIGINT sent at 2 or later and exit 3", l)
	}
}

// CompareDirs catches a flipped byte and a missing file, and ignores
// names no pattern matches.
func TestCompareDirsDetectsDivergence(t *testing.T) {
	a, b := t.TempDir(), t.TempDir()
	for _, dir := range []string{a, b} {
		for _, name := range []string{"MANIFEST.glm", "gen-00000001.seg", "gen-00000002.seg"} {
			if err := os.WriteFile(filepath.Join(dir, name), []byte("payload of "+name), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := os.WriteFile(filepath.Join(b, "gen-00000003.seg.torn"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	patterns := []string{"MANIFEST.glm", "gen-*.seg"}
	if err := CompareDirs(a, b, patterns...); err != nil {
		t.Fatalf("identical directories: %v", err)
	}
	seg := filepath.Join(b, "gen-00000002.seg")
	if err := os.WriteFile(seg, []byte("payload of gen-00000002.sef"), 0o644); err != nil { // one flipped bit
		t.Fatal(err)
	}
	if err := CompareDirs(a, b, patterns...); err == nil || !strings.Contains(err.Error(), "gen-00000002.seg") {
		t.Errorf("flipped byte: %v, want an error naming gen-00000002.seg", err)
	}
	if err := os.Remove(seg); err != nil {
		t.Fatal(err)
	}
	if err := CompareDirs(a, b, patterns...); !errors.Is(err, fs.ErrNotExist) || !strings.Contains(err.Error(), "gen-00000002.seg") {
		t.Errorf("missing segment: %v, want a not-exist error naming gen-00000002.seg", err)
	}
}
