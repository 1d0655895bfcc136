package main

import (
	"repro/internal/sim"
	"repro/internal/transport"
)

// memTransport is one end of an in-memory Transport pair for the
// proto_inmem workload: SendBurst copies each frame into a pooled
// buffer on the peer's queue, RecvBurst pops them. No kernel, no
// goroutine hand-off, no lock — both ends are driven by one goroutine,
// so what remains of an RPC's cost is core + wire + msgbuf (+ timely /
// carousel when a bypass is off).
type memTransport struct {
	addr transport.Addr
	peer *memTransport
	pool *transport.Pool // backs the frames queued to this end

	q          [memQueueCap]transport.Frame
	head, tail uint32
	drops      uint64
}

// memQueueCap bounds one end's queue (power of two). A closed loop of
// 8 small RPCs never holds more than 8 frames; the bound exists so a
// multi-packet experiment overflows like a NIC RQ instead of growing.
const memQueueCap = 1024

func newMemPair(a, b transport.Addr) (*memTransport, *memTransport) {
	ta := &memTransport{addr: a, pool: transport.NewPool(transport.DefaultUDPMTU, memQueueCap)}
	tb := &memTransport{addr: b, pool: transport.NewPool(transport.DefaultUDPMTU, memQueueCap)}
	ta.peer, tb.peer = tb, ta
	return ta, tb
}

func (m *memTransport) MTU() int                  { return transport.DefaultUDPMTU }
func (m *memTransport) LocalAddr() transport.Addr { return m.addr }
func (m *memTransport) SetWake(func())            {} // the driver polls; nothing parks
func (m *memTransport) Close() error              { return nil }

func (m *memTransport) Send(_ transport.Addr, frame []byte) { m.peer.push(frame, m.addr) }

func (m *memTransport) SendBurst(frames []transport.Frame) {
	for i := range frames {
		m.peer.push(frames[i].Data, m.addr)
	}
}

// push queues a copy of one frame on this end. The pair lives on one
// goroutine, which owns both pools.
//
//erpc:owner
func (m *memTransport) push(data []byte, from transport.Addr) {
	if m.tail-m.head == memQueueCap || len(data) > transport.DefaultUDPMTU {
		m.drops++
		return
	}
	buf := append(m.pool.Get(), data...)
	m.q[m.tail%memQueueCap] = transport.PooledFrame(buf, from, m.pool)
	m.tail++
}

func (m *memTransport) RecvBurst(frames []transport.Frame) int {
	n := 0
	for n < len(frames) && m.head != m.tail {
		slot := &m.q[m.head%memQueueCap]
		frames[n] = *slot
		*slot = transport.Frame{}
		m.head++
		n++
	}
	return n
}

func (m *memTransport) Recv() ([]byte, transport.Addr, bool) {
	var f [1]transport.Frame
	if m.RecvBurst(f[:]) == 0 {
		return nil, transport.Addr{}, false
	}
	out := append([]byte(nil), f[0].Data...)
	from := f[0].Addr
	f[0].Release()
	return out, from, true
}

var _ transport.Transport = (*memTransport)(nil)

// virtualClock is a Clock the harness advances by hand: one
// microsecond per loop pass in proto_inmem, so RTT samples, RTO scans
// and Timely see the same schedule on every run and every host.
type virtualClock struct{ now sim.Time }

func (c *virtualClock) Now() sim.Time { return c.now }
