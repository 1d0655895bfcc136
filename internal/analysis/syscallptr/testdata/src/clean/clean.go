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

func ignored() uintptr {
	return uintptr(unsafe.Pointer(&buf[0])) //erpc:ignore handed to the test harness which pins buf
}

type sqe struct {
	addr uint64
}

func sqeWordIgnored(s *sqe) {
	// The accepted shape of the descriptor-ring idiom: the store into
	// the queue-entry word is centralized and the pointee's lifetime
	// argued in one reasoned ignore.
	//erpc:ignore the pointee is engine-owned preallocated memory that outlives the submission, and Go's GC does not move heap objects
	s.addr = uint64(uintptr(unsafe.Pointer(&buf[0])))
}
