package core

import "syscall"

// osYield gives the CPU to another runnable thread, if the OS has one
// for it (sched_yield), and otherwise returns at once. It does not
// block, so it needs no scheduler hand-off.
func osYield() { syscall.RawSyscall(syscall.SYS_SCHED_YIELD, 0, 0, 0) }
