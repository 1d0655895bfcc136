//go:build !linux || !(amd64 || arm64)

package transport

// Portable build: no batched engine, so no segmentation offload either.
// Every constructor gets the per-packet engine of udp.go (tested on
// Linux through NewUDPPerPacket). CI cross-builds this file
// (GOOS=darwin, and GOOS=linux GOARCH=386) so it cannot rot.

// MmsgSupported reports whether the batched sendmmsg/recvmmsg engine
// is compiled into this binary.
const MmsgSupported = false

// UDPGsoSupported reports whether the kernel accepts UDP_SEGMENT and
// UDP_GRO; with no engine to use them the answer is always false.
func UDPGsoSupported() bool { return false }

func newBatchEngine(u *UDP, offload bool) udpEngine { return newPerPacketEngine(u) }
