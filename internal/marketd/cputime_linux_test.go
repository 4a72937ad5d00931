//go:build linux

package marketd

import (
	"syscall"
	"time"
	"unsafe"
)

// haveProcessCPU reports that processCPU reads a real clock here.
const haveProcessCPU = true

// processCPU reads the CPU time of the whole process, every thread's
// user and system time with the garbage collector's included, from
// clock_gettime(CLOCK_PROCESS_CPUTIME_ID); 0 if the clock cannot be read.
func processCPU() time.Duration {
	const clockProcessCPU = 2 // CLOCK_PROCESS_CPUTIME_ID
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPU, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}
