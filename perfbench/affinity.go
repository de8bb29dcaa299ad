package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// cpuMask is a sched_setaffinity(2) CPU set, room for 1024 CPUs.
type cpuMask [16]uint64

func (m *cpuMask) set(cpu int)      { m[cpu/64] |= 1 << (cpu % 64) }
func (m *cpuMask) has(cpu int) bool { return m[cpu/64]&(1<<(cpu%64)) != 0 }

// cpus lists the CPUs in the mask in ascending order.
func (m *cpuMask) cpus() []int {
	var out []int
	for c := 0; c < len(m)*64; c++ {
		if m.has(c) {
			out = append(out, c)
		}
	}
	return out
}

// getAffinity reads the calling thread's CPU set.
func getAffinity() (cpuMask, error) {
	var m cpuMask
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	if e != 0 {
		return m, e
	}
	return m, nil
}

// setAffinity restricts the calling thread to the mask.
func setAffinity(m cpuMask) error {
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	if e != 0 {
		return e
	}
	return nil
}

// daemonCPUs is the CPU set the workload confines hinriskd to, nil for
// none. serve-read gives the daemon the last CPU this process may use,
// and the load generator keeps them all: on a core of its own the
// daemon runs with GOMAXPROCS 1 and is never preempted by the
// generator, so its CPU time per read measures its own work rather than
// how the scheduler happened to interleave client and server threads.
// The other workloads share every core, serve-attack because a rebuild
// competing with queries for all of them is what it measures.
func daemonCPUs(workload string) (*cpuMask, error) {
	if workload != "serve-read" {
		return nil, nil
	}
	all, err := getAffinity()
	if err != nil {
		return nil, err
	}
	cs := all.cpus()
	if len(cs) < 2 {
		return nil, nil
	}
	var m cpuMask
	m.set(cs[len(cs)-1])
	return &m, nil
}

// placement is the daemon's CPU set as recorded in the stamp.
func placement(m *cpuMask) string {
	if m == nil {
		return "shared"
	}
	return fmt.Sprintf("daemon on cpus %v", m.cpus())
}

// startPinned runs start with the calling thread restricted to m, so a
// process it forks inherits m as its CPU set (and the Go runtime in it
// sizes GOMAXPROCS to match), then restores the thread's own set.
func startPinned(m cpuMask, start func() error) error {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	old, err := getAffinity()
	if err != nil {
		return err
	}
	if err := setAffinity(m); err != nil {
		return err
	}
	startErr := start()
	if err := setAffinity(old); err != nil {
		return err
	}
	return startErr
}

// processCPU is the CPU time process pid has used so far, all of its
// threads, exited ones included, with nanosecond resolution: the
// kernel's per-process CPU-time clock (clock_getcpuclockid(3)), which
// counts time the process ran, not time the hypervisor took its vCPU.
func processCPU(pid int) (time.Duration, error) {
	// The clock id of a process's scheduler-time clock: ^pid<<3 | 2.
	id := uintptr((^pid)<<3 | 2)
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0, fmt.Errorf("clock_gettime for pid %d: %w", pid, e)
	}
	return time.Duration(ts.Nano()), nil
}
