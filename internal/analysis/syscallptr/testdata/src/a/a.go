// Package a exercises the syscallptr analyzer's flagged cases.
package a

import (
	"syscall"
	"unsafe"
)

var x int

type carrier struct {
	addr uintptr
}

func storedInVar() {
	u := uintptr(unsafe.Pointer(&x)) // want `stored in a variable`
	_ = u
}

func storedInDecl() {
	var u uintptr = uintptr(unsafe.Pointer(&x)) // want `stored in a variable declaration`
	_ = u
}

func storedInLiteral() carrier {
	return carrier{addr: uintptr(unsafe.Pointer(&x))} // want `stored in a composite literal`
}

func returned() uintptr {
	return uintptr(unsafe.Pointer(&x)) // want `returned`
}

func storedViaConversion() {
	u := uint64(uintptr(unsafe.Pointer(&x))) // want `stored in a variable`
	_ = u
}

func rebuilt(u uintptr) unsafe.Pointer {
	// u crossed a statement boundary somewhere: the object may be gone.
	return unsafe.Pointer(u) // want `not derived in the same expression`
}

type sqe struct {
	addr uint64
}

func storedInSqeWord(s *sqe) {
	// The descriptor-ring idiom: an address parked in a submission-queue
	// entry outlives the statement (the kernel reads it later).
	s.addr = uint64(uintptr(unsafe.Pointer(&x))) // want `stored in a variable`
}

var hdrs [8]uint64

func heldBeforeSyscall(fd uintptr, i int) {
	// A send whose message header address sits in a local for one
	// statement: the shape of a planted bug only this check caught
	// (EXPERIMENTS.md, "Does syscallptr earn its place?").
	p := uintptr(unsafe.Pointer(&hdrs[i])) // want `stored in a variable`
	_, _, _ = syscall.Syscall6(syscall.SYS_SENDMSG, fd, p, 1, syscall.MSG_DONTWAIT, 0, 0)
}
