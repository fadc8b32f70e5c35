package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// pinnedEnv marks a harness process that has already confined itself; its
// value is the number of CPUs it could have run on.
const pinnedEnv = "LIGHTOR_BENCH_PINNED"

// pinToOneCPU confines the harness, and with it every process it starts, to
// ONE of the CPUs it may run on, and returns that CPU's number and how many
// there were to choose from.
//
// An affinity mask set with sched_setaffinity covers the calling thread only
// and is inherited by what that thread creates, while the Go runtime has
// started threads of its own before main runs; so the calling thread is
// confined and then execs this same binary again, which starts every thread
// of the new image inside the mask.
func pinToOneCPU() (cpu, nproc int, err error) {
	runtime.LockOSThread()
	var mask [16]uint64 // 1024 CPUs
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); errno != 0 {
		return 0, 0, fmt.Errorf("sched_getaffinity: %w", errno)
	}
	cpu = -1
	for i := len(mask)*64 - 1; i >= 0; i-- {
		if mask[i/64]&(1<<(i%64)) != 0 {
			cpu = i // ends on the lowest
			nproc++
		}
	}
	if cpu < 0 {
		return 0, 0, fmt.Errorf("sched_getaffinity: empty mask")
	}
	if was, err := strconv.Atoi(os.Getenv(pinnedEnv)); err == nil {
		runtime.UnlockOSThread()
		return cpu, was, nil
	}
	mask = [16]uint64{}
	mask[cpu/64] = 1 << (cpu % 64)
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); errno != 0 {
		return 0, 0, fmt.Errorf("sched_setaffinity: %w", errno)
	}
	self, err := os.Executable()
	if err != nil {
		return 0, 0, err
	}
	return 0, 0, syscall.Exec(self, os.Args, append(os.Environ(), pinnedEnv+"="+strconv.Itoa(nproc)))
}
