package chaos

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"time"
)

// maxWedge bounds one launch: a child still running this long after it
// started is killed and the launch fails as wedged.
const maxWedge = 5 * time.Minute

// Kill is one point of a crash plan: once the child's durable progress
// reaches At, it is sent Signal. A child that writes faster than the
// poll may be past At by then; Launch.SentAt says where it was. At 0
// signals as soon as the child has started, before its first write. A
// zero Signal lets the child run to its end.
type Kill struct {
	At     int
	Signal syscall.Signal
}

// Launch reports one child process.
type Launch struct {
	Kill
	// Sent is false when the child exited before its progress reached
	// At: the plan point was missed.
	Sent   bool
	SentAt int    // progress when the signal was sent
	Left   int    // progress after the child exited
	Code   int    // exit code; -1 when a signal ended the child
	Output string // stdout and stderr, interleaved
}

// Harness re-executes the running binary as a child and signals it
// when the child's durable progress, read from disk, reaches a plan
// point. Which kills land thus depends on the plan and on what the
// child has written, not on a clock. The binary acts as the child when
// its environment holds Env; a test binary checks for it in TestMain.
type Harness struct {
	Env  string // "NAME=value" marking the child
	Args []string
	// Progress counts what the child has durably written so far. It is
	// polled about once per millisecond while a signal is pending.
	Progress func() (int, error)
}

// Run launches the child once per plan point, in order, then once more
// with no signal, and reports every launch.
func (h *Harness) Run(plan ...Kill) ([]Launch, error) {
	var out []Launch
	for _, k := range append(plan, Kill{}) {
		l, err := h.Launch(k)
		if err != nil {
			return out, err
		}
		out = append(out, l)
	}
	return out, nil
}

// Launch runs the child once under k and waits for it to exit.
func (h *Harness) Launch(k Kill) (Launch, error) {
	l := Launch{Kill: k}
	exe, err := os.Executable()
	if err != nil {
		return l, err
	}
	cmd := exec.Command(exe, h.Args...)
	cmd.Env = append(os.Environ(), h.Env)
	var buf bytes.Buffer
	cmd.Stdout, cmd.Stderr = &buf, &buf
	if err := cmd.Start(); err != nil {
		return l, err
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	wedge := time.After(maxWedge)
	for {
		if k.Signal != 0 && !l.Sent {
			p, err := h.Progress()
			if err != nil {
				_ = cmd.Process.Kill() // the launch has failed already
				<-done
				return l, fmt.Errorf("chaos: reading progress: %w", err)
			}
			// Signal fails once the child has been reaped: it exited
			// first, and the point is missed.
			if p >= k.At && cmd.Process.Signal(k.Signal) == nil {
				l.Sent, l.SentAt = true, p
			}
		}
		select {
		case err := <-done:
			var ee *exec.ExitError
			if err != nil && !errors.As(err, &ee) {
				return l, err
			}
			l.Code, l.Output = cmd.ProcessState.ExitCode(), buf.String()
			if l.Left, err = h.Progress(); err != nil {
				return l, fmt.Errorf("chaos: reading progress: %w", err)
			}
			return l, nil
		case <-wedge:
			_ = cmd.Process.Kill()
			<-done
			return l, fmt.Errorf("chaos: child wedged for %v; output:\n%s", maxWedge, buf.String())
		case <-time.After(time.Millisecond):
		}
	}
}

// Coverage renders launches as one line: for each, the signal, the
// progress when it was sent and the progress after the child exited.
func Coverage(ls []Launch) string {
	parts := make([]string, len(ls))
	for i, l := range ls {
		switch {
		case l.Signal == 0:
			parts[i] = fmt.Sprintf("no signal →%d", l.Left)
		case !l.Sent:
			parts[i] = fmt.Sprintf("%v at %d missed →%d", l.Signal, l.At, l.Left)
		default:
			parts[i] = fmt.Sprintf("%v at %d →%d", l.Signal, l.SentAt, l.Left)
		}
		parts[i] += fmt.Sprintf(" (exit %d)", l.Code)
	}
	return strings.Join(parts, ", ")
}

// CompareDirs checks that every file in a or b whose name matches one
// of patterns exists in both directories with the same bytes. The
// error names the first file that is missing or differs.
func CompareDirs(a, b string, patterns ...string) error {
	var names []string
	for _, dir := range []string{a, b} {
		ents, err := os.ReadDir(dir)
		if err != nil {
			return err
		}
		for _, e := range ents {
			for _, p := range patterns {
				ok, err := filepath.Match(p, e.Name())
				if err != nil {
					return err
				}
				if ok {
					names = append(names, e.Name())
				}
			}
		}
	}
	slices.Sort(names)
	for _, name := range slices.Compact(names) {
		ab, err := os.ReadFile(filepath.Join(a, name))
		if err != nil {
			return err
		}
		bb, err := os.ReadFile(filepath.Join(b, name))
		if err != nil {
			return err
		}
		if !bytes.Equal(ab, bb) {
			return fmt.Errorf("chaos: %s differs between %s and %s", name, a, b)
		}
	}
	return nil
}
