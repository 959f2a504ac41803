package main

import (
	"syscall"
	"time"
	"unsafe"
)

// processCPU is the CPU time every thread of the process has run,
// garbage collection and helper goroutines included, read with
// clock_gettime(2). A kernel with paravirtual steal accounting leaves
// out time the hypervisor stole from the virtual machine, which wall
// time counts.
func processCPU() time.Duration {
	const clockProcessCPUTimeID = 2 // CLOCK_PROCESS_CPUTIME_ID
	var ts syscall.Timespec
	if _, _, e := syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		panic("clock_gettime: " + e.Error())
	}
	return time.Duration(ts.Nano())
}
