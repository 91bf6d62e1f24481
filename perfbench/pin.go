package main

import (
	"fmt"
	"math/bits"
	"os"
	"strconv"
	"syscall"
	"unsafe"
)

// cpuMask is a Linux CPU affinity mask.
type cpuMask [16]uint64

func getAffinity() (cpuMask, error) {
	var m cpuMask
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	if e != 0 {
		return m, fmt.Errorf("sched_getaffinity: %w", e)
	}
	return m, nil
}

// cpus is the number of CPUs in the mask.
func (m cpuMask) cpus() int {
	n := 0
	for _, w := range m {
		n += bits.OnesCount64(w)
	}
	return n
}

// childProcs is the GOMAXPROCS a Go program started now would run with:
// $GOMAXPROCS if set, otherwise the CPUs this thread may run on, which
// the child inherits.
func childProcs() (int, error) {
	if n, err := strconv.Atoi(os.Getenv("GOMAXPROCS")); err == nil && n > 0 {
		return n, nil
	}
	m, err := getAffinity()
	return m.cpus(), err
}

// setAffinity applies the mask to every thread of this process; threads
// started later inherit it from their creator, and a child process from
// the thread that forks it.  The thread list is walked until a pass
// finds no thread it has not already set.
func setAffinity(m cpuMask) error {
	done := map[int]bool{}
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
			_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
			if errno != 0 && errno != syscall.ESRCH {
				return fmt.Errorf("sched_setaffinity: %w", errno)
			}
			done[tid], fresh = true, true
		}
		if !fresh {
			return nil
		}
	}
}

// pinToOneCPU confines this process, and the windowd it starts next, to
// the highest-numbered CPU it may run on, and returns a function that
// restores the previous mask.
func pinToOneCPU() (restore func() error, err error) {
	prev, err := getAffinity()
	if err != nil {
		return nil, err
	}
	var one cpuMask
	for i := len(prev)*64 - 1; i >= 0; i-- {
		if prev[i/64]&(1<<(i%64)) != 0 {
			one[i/64] = 1 << (i % 64)
			break
		}
	}
	if err := setAffinity(one); err != nil {
		return nil, err
	}
	return func() error { return setAffinity(prev) }, nil
}
