// Package transport defines eRPC's transport abstraction: basic
// unreliable packet I/O, the only thing eRPC requires from the network
// (paper §3: "eRPC implements RPCs on top of a transport layer that
// provides basic unreliable packet I/O").
//
// Two implementations exist: a real UDP transport (this package) and
// the simulated datacenter fabric (package simnet). Both deliver
// at-most-once, possibly-reordered, MTU-bounded frames.
//
// # The burst datapath
//
// The hot path moves packets in bursts, mirroring the paper's NIC
// datapath (§4.2-4.3): RecvBurst fills a caller-provided slice of
// Frames (per event-loop iteration in the core, up to SocketBurst over
// a real socket and the paper's DefaultBurst in simulated time), SendBurst
// transmits a batch with one doorbell/lock acquisition, and RX buffers
// come from a recycling Pool that the receiver re-posts to with
// Frame.Release once a packet is processed — exactly like re-posting a
// NIC RX descriptor. A caller with one frame sends or receives a burst
// of one.
//
// Buffer-ownership rules (the zero-copy idiom of §4.2.3):
//
//   - An RX Frame's Data is valid from RecvBurst until Release; the
//     receiver must copy anything it needs longer. Release re-posts
//     the buffer, after which the transport may overwrite it.
//   - TX buffers are owned by the caller and may be reused as soon as
//     SendBurst returns; the transport copies or completes
//     transmission synchronously.
//
// Pools are single-owner (see Pool): Get/Put are the owning
// goroutine's lock-free fast path, and cross-goroutine releases go
// through the mutex-guarded shared slow path — per frame via
// Frame.Release on a SharedFrame, or once per burst via ReleaseBurst.
// Sharded multi-endpoint processes (ListenUDPShards) give every
// endpoint its own socket, RX ring and pools, so no datapath state is
// shared across dispatch goroutines (§4.1).
//
// # Machine-checked ownership
//
// The ownership rules above are not just documentation. Functions that
// run in a pool-owning context carry an //erpc:owner directive, and
// the erpcvet analyzer suite (cmd/erpcvet, runnable standalone or via
// go vet -vettool) enforces the discipline statically: Pool.Get/Put
// fast-path calls outside annotated owner contexts, acquired buffers
// that can leak on an early return, TX-retained msgbuf aliases freed
// without a dominating flush, and uintptr-of-unsafe.Pointer values
// stored across statements are all build errors in CI. A known-safe
// violation is suppressed with //erpc:ignore plus a mandatory reason.
// What the analyzers cannot prove absent, builds with -tags erpcdebug
// catch at runtime: the sanitizer in debug_on.go panics on pool
// double-puts (with the acquisition site), fast-path puts off the
// owner goroutine and SegBuf refcount underflow/reuse-in-flight.
package transport

import "fmt"

// Addr identifies an Rpc endpoint: a node (machine) and a port
// (endpoint index within the node, one per dispatch thread). Addr is
// comparable and usable as a map key, in the spirit of gopacket's
// Endpoint type.
type Addr struct {
	Node uint16
	Port uint16
}

func (a Addr) String() string { return fmt.Sprintf("%d:%d", a.Node, a.Port) }

// FlowHash returns a symmetric hash of the (src, dst) pair for ECMP
// load balancing. Symmetry (A→B == B→A) mirrors gopacket's
// Flow.FastHash and keeps both directions of a session on one path.
func FlowHash(a, b Addr) uint32 {
	x := uint32(a.Node)<<16 | uint32(a.Port)
	y := uint32(b.Node)<<16 | uint32(b.Port)
	if x > y {
		x, y = y, x
	}
	// FNV-1a over the two words.
	h := uint32(2166136261)
	for _, w := range [2]uint32{x, y} {
		for i := 0; i < 4; i++ {
			h ^= w >> (8 * i) & 0xFF
			h *= 16777619
		}
	}
	return h
}

// Transport is unreliable datagram I/O for one Rpc endpoint. The
// package comment gives the buffer-ownership rules.
type Transport interface {
	// MTU returns the maximum frame size in bytes (headers included).
	MTU() int
	// LocalAddr returns this endpoint's address.
	LocalAddr() Addr
	// SendBurst transmits a batch of frames (Data + destination Addr)
	// with one doorbell: implementations acquire their TX lock and
	// flush their DMA queue once per burst, not per packet (§4.2.2).
	// Callers keep ownership of the frames; the buffers may be reused
	// as soon as SendBurst returns. It never blocks; any frame may be
	// silently dropped.
	SendBurst(frames []Frame)
	// RecvBurst fills up to len(frames) received frames and returns
	// how many it wrote. Each returned frame is valid until its
	// Release, which re-posts the buffer to the transport's pool (like
	// re-posting a NIC RX descriptor). Implementations drain their RX
	// ring under one lock acquisition per burst.
	RecvBurst(frames []Frame) int
	// SetWake registers fn to be invoked when a frame arrives and the
	// receive queue was empty. Real transports call it from the
	// receive goroutine; the simulated transport calls it at virtual
	// delivery time. fn must be cheap and non-blocking.
	SetWake(fn func())
	// Close releases resources. RecvBurst after Close returns no frames.
	Close() error
}
