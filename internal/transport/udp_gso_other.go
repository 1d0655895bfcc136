//go:build !linux || !(amd64 || arm64)

package transport

// Fallback build: no segmentation-offload engine. NewUDP selects the
// per-packet engine. CI cross-builds this file (GOOS=darwin, and
// GOOS=linux GOARCH=386) so it cannot rot.

// GsoSupported reports whether the segmentation-offload engine is
// compiled into this binary.
const GsoSupported = false

// UDPGsoSupported reports whether the kernel accepts UDP_SEGMENT and
// UDP_GRO; without the engine compiled in the answer is always false.
func UDPGsoSupported() bool { return false }

// newGsoEngine is never selected on this build (newUDPConn checks
// GsoSupported first); it exists so udp.go compiles.
func newGsoEngine(u *UDP) udpEngine { return newDefaultEngine(u) }
