//go:build !linux || !(amd64 || arm64)

package transport

// Portable fallback build: no SO_REUSEPORT sharding. ListenUDPShards
// lays its shards out on n distinct ports behind the same resolver
// instead (see listenShardsFallback, which a Linux test calls
// directly); CI cross-builds this file.

import "net"

// ReusePortSupported reports whether ListenUDPShards can bind all
// shards to one UDP address via SO_REUSEPORT.
const ReusePortSupported = false

// listenReusePort is never called on this build (ListenUDPShards
// checks ReusePortSupported first); it exists so udp.go compiles.
func listenReusePort(bind string) (*net.UDPConn, error) {
	panic("transport: listenReusePort without SO_REUSEPORT support")
}
