package main

import (
	"fmt"
	"os"
	"strconv"
	"syscall"
	"unsafe"
)

// cpuMask is a sched_setaffinity mask of up to 1024 CPUs.
type cpuMask [16]uint64

func (m *cpuMask) has(cpu int) bool { return m[cpu/64]&(1<<(cpu%64)) != 0 }

func getAffinity(tid int) (cpuMask, error) {
	var m cpuMask
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	if errno != 0 {
		return m, errno
	}
	return m, nil
}

func setAffinity(tid int, m cpuMask) error {
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	if errno != 0 {
		return errno
	}
	return nil
}

// setProcessAffinity moves every thread of this process onto mask. A
// thread created while the pass runs inherits its creator's mask, which
// may still be the old one, so passes repeat until one finds nothing to
// move.
func setProcessAffinity(mask cpuMask) error {
	for pass := 0; pass < 10; pass++ {
		entries, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return err
		}
		moved := 0
		for _, e := range entries {
			tid, err := strconv.Atoi(e.Name())
			if err != nil {
				continue
			}
			cur, err := getAffinity(tid)
			if err != nil {
				continue // the thread has exited
			}
			if cur == mask {
				continue
			}
			if err := setAffinity(tid, mask); err != nil && err != syscall.ESRCH {
				return err
			}
			moved++
		}
		if moved == 0 {
			return nil
		}
	}
	return fmt.Errorf("threads kept appearing off the chosen CPU")
}

// pinProcess confines this process, and so every server it starts from
// then on, to the highest-numbered CPU it is allowed to run on. On a
// few cores of a shared host a request that crosses from the client's
// core to the server's and back waits twice for the hypervisor to wake
// an idle virtual CPU, which costs more than a cached answer and varies
// with the host's load; on one core the client and the server
// alternate, as they must in a closed loop of one client, and nothing
// waits for a wake-up. The returned function lets the process use all
// its CPUs again; calling it twice is harmless.
func pinProcess() (unpin func() error, err error) {
	all, err := getAffinity(0)
	if err != nil {
		return nil, err
	}
	cpu := -1
	for c := 0; c < len(all)*64; c++ {
		if all.has(c) {
			cpu = c
		}
	}
	if cpu < 0 {
		return nil, fmt.Errorf("empty CPU affinity mask")
	}
	var one cpuMask
	one[cpu/64] = 1 << (cpu % 64)
	if err := setProcessAffinity(one); err != nil {
		return nil, err
	}
	return func() error { return setProcessAffinity(all) }, nil
}
