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
// transmits a batch with one doorbell/lock acquisition, and the receiver
// releases each RX frame with Frame.Release once a packet is processed —
// exactly like re-posting a NIC RX descriptor. A caller with one frame
// sends or receives a burst of one.
//
// Buffer-ownership rules (the zero-copy idiom of §4.2.3):
//
//   - An RX Frame's Data is valid from RecvBurst until Release; the
//     receiver must copy anything it needs longer. A caller releases
//     every frame of a burst before its next RecvBurst or Wait on that
//     transport, after which the transport may overwrite the bytes.
//   - TX buffers are owned by the caller and may be reused as soon as
//     SendBurst returns; the transport copies or completes
//     transmission synchronously.
//
// The RX side has one owner, the goroutine that calls RecvBurst, as the
// paper's dispatch thread owns its RX queue and the buffers it posts
// (§4.1–4.2). The UDP transport hands out frames that alias one of two
// receive windows it owns and re-posts a window whole (see UDP); the
// simulated and in-memory transports hand out buffers of a
// single-owner Pool, which Release returns on the lock-free fast path.
// Sharded multi-endpoint processes (ListenUDPShards) give every
// endpoint its own socket and windows, so no datapath state is shared
// across dispatch goroutines.
//
// # Machine-checked ownership
//
// The ownership rules above are not just documentation. Functions that
// run in a pool-owning context carry an //erpc:owner directive, and
// the erpcvet analyzer suite (cmd/erpcvet, runnable standalone or via
// go vet -vettool) enforces the discipline statically: Pool.Get/Put
// fast-path calls outside annotated owner contexts, acquired buffers
// that can leak on an early return, and uintptr-of-unsafe.Pointer
// values stored across statements are all build errors in CI. The core
// needs no TX rule: its batch builds every frame in a buffer it owns
// and takes no pool buffer for it. A known-safe
// violation is suppressed with //erpc:ignore plus a mandatory reason.
// What the analyzers cannot prove absent, builds with -tags erpcdebug
// catch at runtime: the sanitizer in debug_on.go panics on pool
// double-puts (with the acquisition site), fast-path puts off the
// owner goroutine and a UDP receive into a window that still holds a
// frame handed out and not released (with the hand-out site).
package transport

import (
	"fmt"
	"time"
)

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
	// how many it wrote, without blocking. Each returned frame is valid
	// until its Release (like re-posting a NIC RX descriptor), and the
	// caller releases every frame of a burst before its next RecvBurst
	// or Wait on this transport.
	RecvBurst(frames []Frame) int
	// SetWake registers fn to be invoked when a frame arrives and the
	// receive queue was empty; the simulated transport calls it at
	// virtual delivery time. fn must be cheap and non-blocking. An
	// owner that sleeps in the transport's Waiter does not need it.
	SetWake(fn func())
	// Close releases resources. RecvBurst after Close returns no frames.
	Close() error
}

// Waiter is what a Transport whose owner can sleep on the transport
// itself offers (the UDP transport: its socket in the netpoller). The
// goroutine that calls RecvBurst waits in Wait, and any goroutine ends
// the wait with Interrupt, so one wait serves packet arrivals, a
// deadline and wake-ups from other goroutines alike.
type Waiter interface {
	// Wait blocks until RecvBurst has frames, d elapses, Interrupt is
	// called or the transport is closed, and reports whether RecvBurst
	// has frames or an Interrupt ended the wait. With d <= 0 it does
	// not block: it looks once. Only the goroutine that calls RecvBurst
	// may call it.
	Wait(d time.Duration) bool
	// Interrupt ends the Wait in progress, or the next one if none is.
	// Callable from any goroutine; while no Wait is in progress it
	// costs an atomic operation.
	Interrupt()
}

// WaiterOf returns t's Waiter, or nil when t has none. A wrapper
// transport forwards the one it wraps by having an unexported waiter
// method (see Chaos); a wrapper that neither has one nor forwards hides
// its transport's, and its owner falls back on SetWake.
func WaiterOf(t Transport) Waiter {
	switch w := t.(type) {
	case interface{ waiter() Waiter }:
		return w.waiter()
	case Waiter:
		return w
	}
	return nil
}
