package pnnq

import (
	"syscall"
	"time"
	"unsafe"
)

// threadCPU reads the calling OS thread's CPU clock
// (CLOCK_THREAD_CPUTIME_ID): time the thread spends preempted by another
// process does not advance it.
func threadCPU() (time.Duration, bool) {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	_, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano()), errno == 0
}
