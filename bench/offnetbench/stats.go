package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// median returns the middle value of xs, the mean of the two middle
// values when len(xs) is even, and NaN when xs is empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// nearestRank returns the q-quantile of xs by the nearest-rank method:
// the smallest sample with at least ceil(q·n) samples at or below it. It
// always returns a measured sample, never an interpolated or bucketed
// value.
func nearestRank(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	rank := int(math.Ceil(q * float64(len(s))))
	rank = min(max(rank, 1), len(s))
	return s[rank-1]
}

// quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) returns (its default "exclusive"
// method), so spreads printed here match the ones the acceptance rule
// computes. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n < 2 {
		v := math.NaN()
		if n == 1 {
			v = s[0]
		}
		return v, v, v
	}
	m := n + 1
	cut := func(i int) float64 {
		j := i * m / 4
		j = min(max(j, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func micros(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Microsecond)
	}
	return out
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// selfCPU is this process's user plus system CPU time so far. Spans
// difference it around a layer call, which attributes correctly as long
// as only that layer is running.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return timeval(ru.Utime) + timeval(ru.Stime)
}

func timeval(tv syscall.Timeval) time.Duration {
	return time.Duration(tv.Sec)*time.Second + time.Duration(tv.Usec)*time.Microsecond
}

// childUsage returns an exited child's CPU time and peak RSS in KiB.
func childUsage(ps *os.ProcessState) (time.Duration, int64) {
	ru, ok := ps.SysUsage().(*syscall.Rusage)
	if !ok {
		return ps.UserTime() + ps.SystemTime(), 0
	}
	return timeval(ru.Utime) + timeval(ru.Stime), ru.Maxrss
}

// clockTicks is the kernel's USER_HZ, the unit of /proc/<pid>/stat CPU
// times; it is 100 on every Linux architecture Go supports.
const clockTicks = 100

// procStat returns the fields of /proc/<pid>/stat from field 3, the
// process state, on: f[0] is field 3.
func procStat(pid int) ([]string, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return nil, err
	}
	// The command name may contain spaces; fields resume after its ')'.
	s := string(raw)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return nil, fmt.Errorf("parsing /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return nil, fmt.Errorf("parsing /proc/%d/stat", pid)
	}
	return f, nil
}

// procState reads a process's state letter, such as 'R' running or 'T'
// stopped.
func procState(pid int) (byte, error) {
	f, err := procStat(pid)
	if err != nil {
		return 0, err
	}
	return f[0][0], nil
}

// procCPU reads a live process's user plus system CPU time from
// /proc/<pid>/stat, all threads included.
func procCPU(pid int) (time.Duration, error) {
	f, err := procStat(pid)
	if err != nil {
		return 0, err
	}
	// utime and stime are fields 14 and 15.
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc/%d/stat", pid)
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// peakRSSKB reads VmHWM, a process's peak resident set, from
// /proc/<pid>/status; pid 0 means this process.
func peakRSSKB(pid int) (int64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
		}
	}
	return 0, fmt.Errorf("no VmHWM in %s", path)
}

// resetPeakRSS restarts this process's VmHWM from its current RSS, so a
// peak read afterwards excludes set-up.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}
