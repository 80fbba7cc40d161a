package footstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"offnetscope/internal/durable"
	"offnetscope/internal/rng"
)

// The generation-log crash-equivalence suite: a subprocess appends and
// compacts a deterministic workload while the parent SIGKILLs it at
// seeded points — mid-append, mid-manifest-commit, mid-compaction.
// After every kill the log is reopened (quarantining uncommitted tails,
// removing orphans) and the workload resumes. The final directory must
// be byte-identical to an uninterrupted run: same manifest, same
// committed segments, nothing torn ever promoted.

const genlogCrashHelperEnv = "GENLOG_CRASH_HELPER"

func TestMain(m *testing.M) {
	if spec := os.Getenv(genlogCrashHelperEnv); spec != "" {
		if err := genlogCrashHelper(spec); err != nil {
			fmt.Fprintln(os.Stderr, "genlog crash helper:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// genlogPayload derives generation g's bytes purely from (seed, g), so
// a restarted run re-appends identical segments. ~32 KiB per payload
// keeps each append long enough for SIGKILL to land inside it.
func genlogPayload(seed uint64, g uint64) []byte {
	r := rng.New(seed).Fork(fmt.Sprintf("gen-%d", g))
	out := make([]byte, 0, 32*1024)
	for len(out) < 32*1024 {
		out = binary.LittleEndian.AppendUint64(out, r.Uint64())
	}
	return out
}

// genlogTargetBase is the deterministic compaction schedule: after the
// highest multiple m of compactEvery reached so far, only the newest
// keep generations survive. It depends only on the newest generation
// number, never on run history, so crashed-and-resumed runs converge
// on the same window as a clean run.
func genlogTargetBase(last uint64, compactEvery, keep uint64) uint64 {
	m := (last / compactEvery) * compactEvery
	if m == 0 || m <= keep {
		return 1
	}
	return m - keep + 1
}

// runGenLogWorkload appends deterministic payloads until the log's
// newest generation reaches target, compacting on the deterministic
// schedule. Safe to call on a partially complete directory: it resumes
// from whatever is committed.
func runGenLogWorkload(dir string, seed, target, compactEvery, keep uint64) error {
	l, _, err := OpenGenLog(dir)
	if err != nil {
		return err
	}
	enforce := func(last uint64) error {
		if last == 0 {
			return nil
		}
		if tb := genlogTargetBase(last, compactEvery, keep); tb > l.Base() {
			if _, err := l.Compact(int(last - tb + 1)); err != nil {
				return err
			}
		}
		return nil
	}
	// Catch up on a compaction the previous incarnation died before.
	if err := enforce(l.Last()); err != nil {
		return err
	}
	for g := l.Last() + 1; g <= target; g++ {
		if _, err := l.AppendEncoded(genlogPayload(seed, g)); err != nil {
			return err
		}
		if err := enforce(g); err != nil {
			return err
		}
	}
	return nil
}

// genlogCrashHelper is the subprocess body; spec is
// "dir|seed|target|compactEvery|keep".
func genlogCrashHelper(spec string) error {
	parts := strings.Split(spec, "|")
	if len(parts) != 5 {
		return fmt.Errorf("bad helper spec %q", spec)
	}
	var seed, target, every, keep uint64
	if _, err := fmt.Sscanf(strings.Join(parts[1:], " "), "%d %d %d %d", &seed, &target, &every, &keep); err != nil {
		return fmt.Errorf("bad helper spec %q: %v", spec, err)
	}
	return runGenLogWorkload(parts[0], seed, target, every, keep)
}

// runGenlogCrashHelper execs the test binary as the workload runner,
// SIGKILLing it after killAfter (0 = let it finish). Returns whether
// the process completed (exit 0) and its combined output.
func runGenlogCrashHelper(t *testing.T, dir string, seed, target, every, keep uint64, killAfter time.Duration) (completed bool, out string) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), fmt.Sprintf("%s=%s|%d|%d|%d|%d", genlogCrashHelperEnv, dir, seed, target, every, keep))
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = &buf
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()

	var timer <-chan time.Time
	if killAfter > 0 {
		timer = time.After(killAfter)
	}
	for {
		select {
		case werr := <-done:
			var ee *exec.ExitError
			if errors.As(werr, &ee) {
				return false, buf.String()
			}
			if werr != nil {
				t.Fatalf("waiting for helper: %v", werr)
			}
			return true, buf.String()
		case <-timer:
			timer = nil
			cmd.Process.Signal(syscall.SIGKILL)
		case <-time.After(2 * time.Minute):
			cmd.Process.Kill()
			t.Fatalf("helper wedged; output:\n%s", buf.String())
		}
	}
}

func TestGenLogCrashEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("SIGKILL crash-equivalence e2e is not -short")
	}
	const (
		seed   = uint64(0x0ff7e75)
		target = uint64(120)
		every  = uint64(10)
		keep   = uint64(4)
	)
	work := t.TempDir()
	cleanDir := filepath.Join(work, "clean")
	crashDir := filepath.Join(work, "crash")

	// Uninterrupted baseline, in-process.
	if err := runGenLogWorkload(cleanDir, seed, target, every, keep); err != nil {
		t.Fatalf("clean run: %v", err)
	}

	// Crash run: SIGKILL at seeded points until the workload completes.
	g := rng.New(seed).Fork("kill-schedule")
	kills, completed := 0, false
	for attempt := 0; attempt < 25; attempt++ {
		delay := 15*time.Millisecond + time.Duration(g.Int63n(int64(185*time.Millisecond)))
		ok, out := runGenlogCrashHelper(t, crashDir, seed, target, every, keep, delay)
		if strings.Contains(out, "genlog crash helper:") {
			t.Fatalf("helper failed:\n%s", out)
		}
		if ok {
			completed = true
			break
		}
		kills++
	}
	if !completed {
		if ok, out := runGenlogCrashHelper(t, crashDir, seed, target, every, keep, 0); !ok {
			t.Fatalf("final uninterrupted helper run failed:\n%s", out)
		}
	}
	if kills == 0 {
		t.Fatal("no SIGKILL landed mid-run; the suite proved nothing")
	}
	t.Logf("workload killed %d time(s) before completing", kills)

	// One more open repairs any tail the last (completed) run left; a
	// completed run leaves nothing, so this must be a no-op.
	l, rec, err := OpenGenLog(crashDir)
	if err != nil {
		t.Fatalf("final open of crash dir: %v", err)
	}
	if len(rec.TornQuarantined) != 0 || len(rec.OrphanedRemoved) != 0 || rec.TempsRemoved != 0 {
		t.Fatalf("completed run left crash artifacts: %+v", rec)
	}
	if l.Last() != target {
		t.Fatalf("crash run Last = %d, want %d", l.Last(), target)
	}

	// Byte-identity: the committed window — manifest and every live
	// segment — must match the uninterrupted baseline exactly.
	// Quarantined *.torn files are the only allowed extra artifacts.
	cb, cn, err := PeekGenLog(cleanDir)
	if err != nil {
		t.Fatal(err)
	}
	xb, xn, err := PeekGenLog(crashDir)
	if err != nil {
		t.Fatal(err)
	}
	if cb != xb || cn != xn {
		t.Fatalf("committed windows differ: clean [%d,%d) vs crash [%d,%d)", cb, cn, xb, xn)
	}
	mustRead := func(dir, name string) []byte {
		t.Helper()
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	if !bytes.Equal(mustRead(cleanDir, manifestName), mustRead(crashDir, manifestName)) {
		t.Fatal("manifests differ")
	}
	for gen := cb; gen < cn; gen++ {
		if !bytes.Equal(mustRead(cleanDir, segName(gen)), mustRead(crashDir, segName(gen))) {
			t.Fatalf("generation %d segment differs", gen)
		}
	}

	// The clean directory must hold no quarantines; count the crash
	// run's for the log line.
	torn := 0
	entries, err := os.ReadDir(crashDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), tornSuffix) {
			torn++
		}
	}
	cleanEntries, err := os.ReadDir(cleanDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range cleanEntries {
		if strings.Contains(e.Name(), tornSuffix) || strings.HasPrefix(e.Name(), durable.TempPrefix) {
			t.Fatalf("clean run left crash artifact %s", e.Name())
		}
	}
	t.Logf("crash run quarantined %d torn segment(s); committed window [%d,%d) byte-identical", torn, xb, xn)
}
