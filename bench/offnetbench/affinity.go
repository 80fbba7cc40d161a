package main

import (
	"errors"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// cpuSet is a Linux CPU affinity mask.
type cpuSet [16]uint64

func (s *cpuSet) add(cpu int) { s[cpu/64] |= 1 << (cpu % 64) }

func (s *cpuSet) cpus() []int {
	var out []int
	for i := 0; i < len(s)*64; i++ {
		if s[i/64]&(1<<(i%64)) != 0 {
			out = append(out, i)
		}
	}
	return out
}

// getAffinity and setAffinity read and write one thread's mask; tid 0
// is the calling thread.
func getAffinity(tid int) (cpuSet, error) {
	var s cpuSet
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, uintptr(tid), unsafe.Sizeof(s), uintptr(unsafe.Pointer(&s)))
	if e != 0 {
		return s, e
	}
	return s, nil
}

func setAffinity(tid int, s *cpuSet) error {
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(*s), uintptr(unsafe.Pointer(s)))
	if e != 0 {
		return e
	}
	return nil
}

// placement gives offnetd one CPU and the load driver another. Left to
// the scheduler, two Go processes on two CPUs keep migrating and waking
// each other across cores: offnetd then spends about twice the CPU per
// request, and that cost swings by a fifth from run to run.
type placement struct {
	daemon, driver, all cpuSet
}

// newPlacement splits the first two CPUs this process may use; it
// reports false when there are fewer than two.
func newPlacement() (*placement, bool) {
	all, err := getAffinity(0)
	if err != nil {
		return nil, false
	}
	cpus := all.cpus()
	if len(cpus) < 2 {
		return nil, false
	}
	p := &placement{all: all}
	p.daemon.add(cpus[0])
	p.driver.add(cpus[1])
	return p, true
}

// startDaemonProcess starts cmd on the daemon's CPU: a child inherits
// the mask of the thread that forks it, so the forking thread is pinned
// for the duration of the start.
func (p *placement) startDaemonProcess(cmd *exec.Cmd) error {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	if err := setAffinity(0, &p.daemon); err != nil {
		return err
	}
	err := cmd.Start()
	if rerr := setAffinity(0, &p.all); err == nil {
		err = rerr
	}
	return err
}

// pinDriver moves every thread of this process to the driver's CPU;
// release undoes it.
func (p *placement) pinDriver() error { return setProcessAffinity(&p.driver) }
func (p *placement) release() error   { return setProcessAffinity(&p.all) }

// setProcessAffinity sets the mask of every thread of this process.
// Threads started later inherit it from the thread that creates them;
// the loop repeats until a pass finds no thread it has not set.
func setProcessAffinity(s *cpuSet) error {
	done := make(map[int]bool)
	for {
		ents, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return err
		}
		fresh := false
		for _, e := range ents {
			tid, err := strconv.Atoi(e.Name())
			if err != nil || done[tid] {
				continue
			}
			if err := setAffinity(tid, s); err != nil && !errors.Is(err, syscall.ESRCH) {
				return err
			}
			done[tid], fresh = true, true
		}
		if !fresh {
			return nil
		}
	}
}
