package main

import (
	"errors"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// cpuSet is a sched_setaffinity mask (up to 1024 CPUs).
type cpuSet [16]uint64

// pinToOneCPU moves every thread of this process onto one CPU, the
// highest-numbered one it may use (device interrupts land on CPU 0).
// Threads the runtime starts later and every child process inherit the
// mask, so the daemon, the load generator and the reference work (see
// reference.go) all run on that CPU.
//
// One closed-loop client keeps one of {client, daemon} busy at a time,
// so a second CPU adds no throughput. What it adds on the sandbox is a
// wake-up of an idle virtual CPU on every request and every reply,
// whose cost follows the host's mood: with daemon and client on a CPU
// each, hot-read's throughput moved between 4,600 and 8,200 requests a
// second from one hour to the next. On one CPU a request hands over by
// a context switch, and the reference work is slowed by exactly what
// slows the daemon.
func pinToOneCPU() error {
	var allowed cpuSet
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(allowed), uintptr(unsafe.Pointer(&allowed))); errno != 0 {
		return errno
	}
	cpu := -1
	for i := 0; i < len(allowed)*64; i++ {
		if allowed[i/64]&(1<<(i%64)) != 0 {
			cpu = i
		}
	}
	if cpu < 0 {
		return errors.New("empty CPU affinity mask")
	}
	var one cpuSet
	one[cpu/64] = 1 << (cpu % 64)
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return err
	}
	for _, t := range tasks {
		tid, err := strconv.Atoi(t.Name())
		if err != nil {
			continue
		}
		_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(one), uintptr(unsafe.Pointer(&one)))
		if errno != 0 && errno != syscall.ESRCH { // ESRCH: the thread exited meanwhile
			return errno
		}
	}
	runtime.GOMAXPROCS(1)
	return nil
}
