//go:build linux && (amd64 || arm64)

package transport

// SO_REUSEPORT socket sharding (Linux): several sockets bind the same
// UDP address and the kernel hashes each flow's 4-tuple to one of
// them, exactly like a NIC's RSS indirection spreading flows across
// hardware RX queues (paper §4.1: each dispatch thread exclusively
// owns its queue pair). The option is set through the stdlib raw
// syscall plumbing for the same reason the batched engine uses it: the
// build environment is hermetic, so golang.org/x/sys is unavailable
// and syscall.SetsockoptInt carries the setsockopt(2) call. The
// constant itself (15 on amd64/arm64) is missing from the stdlib
// syscall package, which is why this file shares the batched engine's
// build gate; everywhere else ListenUDPShards lays shards out on
// distinct ports instead.

import (
	"context"
	"fmt"
	"net"
	"syscall"
)

// ReusePortSupported reports whether ListenUDPShards can bind all
// shards to one UDP address via SO_REUSEPORT (Linux amd64/arm64).
const ReusePortSupported = true

// soReusePort is SO_REUSEPORT on linux/amd64 and linux/arm64 (absent
// from the stdlib syscall package).
const soReusePort = 0xf

// listenReusePort binds one UDP socket at bind with SO_REUSEPORT set
// before the bind takes effect.
func listenReusePort(bind string) (*net.UDPConn, error) {
	lc := net.ListenConfig{
		Control: func(network, address string, c syscall.RawConn) error {
			var serr error
			if err := c.Control(func(fd uintptr) {
				serr = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, soReusePort, 1)
			}); err != nil {
				return err
			}
			return serr
		},
	}
	pc, err := lc.ListenPacket(context.Background(), "udp", bind)
	if err != nil {
		return nil, fmt.Errorf("transport: listen reuseport %q: %w", bind, err)
	}
	return pc.(*net.UDPConn), nil
}
