// Package clean exercises the syscallptr analyzer's accepted patterns.
package clean

import (
	"syscall"
	"unsafe"
)

var buf [64]byte

func inlineSyscall() {
	_, _, _ = syscall.Syscall(syscall.SYS_WRITE, 1,
		uintptr(unsafe.Pointer(&buf[0])), uintptr(len(buf)))
}

func arithmeticRoundTrip(i int) *byte {
	// uintptr(unsafe.Pointer(...)) and the conversion back happen in
	// one expression: the object stays reachable throughout.
	return (*byte)(unsafe.Pointer(uintptr(unsafe.Pointer(&buf[0])) + uintptr(i)))
}

func comparedNotStored(p unsafe.Pointer) bool {
	return uintptr(p) == uintptr(unsafe.Pointer(&buf[0]))
}
