//go:build !linux

package core

// osYield is a no-op where no sched_yield is reachable through package
// syscall: the awake wait then yields only its P.
func osYield() {}
