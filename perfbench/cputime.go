package main

import (
	"syscall"
	"time"
	"unsafe"
)

// Linux clock ids that package syscall does not name.
const (
	clockProcessCPUTime = 2
	clockThreadCPUTime  = 3
)

// threadCPU is the CPU time the calling OS thread has used. Unlike wall
// time it leaves out the time the host hands the vCPU to another guest
// (steal), which on a shared 2-vCPU host reaches a quarter of a busy vCPU
// and swings wall times by up to 2x within minutes. The caller holds
// runtime.LockOSThread so the goroutine stays on the thread measured.
func threadCPU() time.Duration { return cpuClock(clockThreadCPUTime) }

// processCPU is the CPU time of every thread of the process.
func processCPU() time.Duration { return cpuClock(clockProcessCPUTime) }

// cpuClock reads a CPU-time clock with clock_gettime, which counts the
// scheduler's nanoseconds; getrusage rounds short intervals to zero.
func cpuClock(id uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}
