//go:build !linux || !(amd64 || arm64)

package transport

// Portable fallback build: no batched-syscall engine. The per-packet
// engine (one ReadFromUDPAddrPort/WriteToUDPAddrPort crossing per
// datagram, see udp.go) is the default on every platform without
// sendmmsg/recvmmsg support. The engine itself is tested on Linux
// through NewUDPPerPacket; CI cross-builds this file.

// MmsgSupported reports whether the batched sendmmsg/recvmmsg engine
// is compiled into this binary.
const MmsgSupported = false

// newDefaultEngine returns the portable per-packet engine.
func newDefaultEngine(u *UDP) udpEngine { return &perPacketEngine{u: u} }
