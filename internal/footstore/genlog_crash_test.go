package footstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"offnetscope/internal/chaos"
	"offnetscope/internal/durable"
	"offnetscope/internal/rng"
)

// The generation-log crash-equivalence suite: a subprocess appends and
// compacts a deterministic workload while the parent SIGKILLs it at
// seeded generation counts (chaos.Harness) — before the first append,
// before the first compaction, and after it. After every kill the log
// is reopened (quarantining uncommitted tails, removing orphans) and
// the workload resumes. The final directory must be byte-identical to
// an uninterrupted run: same manifest, same committed segments,
// nothing torn ever promoted.

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

	// Crash run: SIGKILL at seeded generation counts, then run to the
	// end. The point before the first compaction stays in the lower
	// half of its range, so a kill that lands a few appends late still
	// precedes the compaction; four more fall one in each quarter of
	// the generations after it.
	g := rng.New(seed).Fork("kill-plan")
	plan := []chaos.Kill{
		{At: 0, Signal: syscall.SIGKILL},
		{At: 1 + g.Intn(int(every)/2-1), Signal: syscall.SIGKILL},
	}
	span := (int(target) - int(every) - 1) / 4
	for q := 0; q < 4; q++ {
		plan = append(plan, chaos.Kill{At: int(every) + 1 + q*span + g.Intn(span), Signal: syscall.SIGKILL})
	}
	h := &chaos.Harness{
		Env: fmt.Sprintf("%s=%s|%d|%d|%d|%d", genlogCrashHelperEnv, crashDir, seed, target, every, keep),
		Progress: func() (int, error) {
			_, next, err := PeekGenLog(crashDir)
			if errors.Is(err, fs.ErrNotExist) {
				return 0, nil
			}
			return int(next) - 1, err
		},
	}
	launches, err := h.Run(plan...)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("kill coverage: %s", chaos.Coverage(launches))
	var beforeAppend, beforeCompact, afterCompact bool
	for i, l := range launches {
		if strings.Contains(l.Output, "genlog crash helper:") {
			t.Fatalf("launch %d: helper failed:\n%s", i, l.Output)
		}
		if l.Signal != 0 && !l.Sent {
			t.Errorf("launch %d: plan point %d missed", i, l.At)
		}
		beforeAppend = beforeAppend || (l.Sent && l.Left == 0)
		beforeCompact = beforeCompact || (l.Sent && l.Left >= 1 && l.Left < int(every))
		afterCompact = afterCompact || (l.Sent && l.SentAt > int(every))
	}
	if !beforeAppend || !beforeCompact || !afterCompact {
		t.Errorf("kill coverage: before the first append %v, before the first compaction %v, after it %v; want all",
			beforeAppend, beforeCompact, afterCompact)
	}
	if final := launches[len(launches)-1]; final.Code != 0 {
		t.Fatalf("final run exited %d:\n%s", final.Code, final.Output)
	}

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
	if err := chaos.CompareDirs(cleanDir, crashDir, manifestName, "gen-*.seg"); err != nil {
		t.Fatal(err)
	}
	for _, pattern := range []string{"*" + tornSuffix + "*", durable.TempPrefix + "*"} {
		if left, _ := filepath.Glob(filepath.Join(cleanDir, pattern)); len(left) > 0 {
			t.Fatalf("clean run left crash artifacts %v", left)
		}
	}
	torn, _ := filepath.Glob(filepath.Join(crashDir, "*"+tornSuffix+"*"))
	t.Logf("crash run quarantined %d torn segment(s); committed window [%d, %d] byte-identical", len(torn), l.Base(), l.Last())
}
