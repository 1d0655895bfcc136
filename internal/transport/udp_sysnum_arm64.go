//go:build linux

package transport

// sysSENDMMSG is the sendmmsg(2) syscall number on linux/arm64
// (identical to the stdlib's SYS_SENDMMSG there; kept as our own
// constant so both arches share the engine source).
const sysSENDMMSG = 269
