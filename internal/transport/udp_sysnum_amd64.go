//go:build linux

package transport

// sysSENDMMSG is the sendmmsg(2) syscall number, absent from the
// stdlib syscall package's linux/amd64 table (SYS_RECVMMSG is there).
const sysSENDMMSG = 307
