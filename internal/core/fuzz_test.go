package core

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/transport"
	"repro/internal/wire"
)

// fuzzFrame encodes h followed by payload data.
func fuzzFrame(h wire.Header, payload []byte) []byte {
	buf := make([]byte, wire.HeaderSize+len(payload))
	if err := h.Encode(buf); err != nil {
		panic(err)
	}
	copy(buf[wire.HeaderSize:], payload)
	return buf
}

// queueTransport is an in-memory Transport whose RX queue is filled by
// the test: frames pushed with inject are handed to the endpoint via
// RecvBurst, so fuzz inputs travel the real burst RX path (pollRX →
// RecvBurst → processPkt → Release). TX is counted and, unless the
// transport has a peer to inject it into, discarded. inject copies a
// frame into a buffer that the next RecvBurst after the one that hands
// the frame out recycles, so a steady exchange allocates nothing.
type queueTransport struct {
	rq   []transport.Frame
	lent []transport.Frame // handed out by the last RecvBurst
	free [][]byte
	sent int
	addr transport.Addr
	peer *queueTransport
}

func newQueueTransport() *queueTransport {
	return &queueTransport{addr: transport.Addr{Node: 1}}
}

func (q *queueTransport) inject(frame []byte, from transport.Addr) {
	var buf []byte
	if n := len(q.free); n > 0 {
		buf, q.free = q.free[n-1], q.free[:n-1]
	}
	q.rq = append(q.rq, transport.Frame{Data: append(buf[:0], frame...), Addr: from})
}

func (q *queueTransport) MTU() int                  { return 1472 }
func (q *queueTransport) LocalAddr() transport.Addr { return q.addr }
func (q *queueTransport) SetWake(func())            {}
func (q *queueTransport) Close() error              { return nil }
func (q *queueTransport) SendBurst(frames []transport.Frame) {
	q.sent += len(frames)
	if q.peer != nil {
		for _, f := range frames {
			q.peer.inject(f.Data, q.addr)
		}
	}
}
func (q *queueTransport) RecvBurst(frames []transport.Frame) int {
	for _, f := range q.lent {
		q.free = append(q.free, f.Data)
	}
	n := copy(frames, q.rq)
	q.lent = append(q.lent[:0], q.rq[:n]...)
	q.rq = q.rq[:copy(q.rq, q.rq[n:])]
	return n
}

// FuzzRxBurst drives whole multi-frame bursts through the core RX path
// of a real-mode (wall-clock) endpoint: up to three fuzz frames are
// queued and then consumed by one RunEventLoopOnce via RecvBurst. The
// seeds include a complete 3-packet request delivered in a single
// burst — data packets, credit returns and the handler invocation all
// happen within one poll — plus truncated and hostile variants. The
// endpoint must neither panic nor wedge, and must still serve a
// well-formed single-packet request afterwards.
func FuzzRxBurst(f *testing.F) {
	const data = 1472 - wire.HeaderSize
	big := make([]byte, 3*data) // exactly 3 packets
	for i := range big {
		big[i] = byte(i)
	}
	mkReq := func(pkt int, reqNum uint64) []byte {
		lo, hi := pkt*data, (pkt+1)*data
		if hi > len(big) {
			hi = len(big)
		}
		return fuzzFrame(wire.Header{PktType: wire.PktReq, ReqType: echoType,
			MsgSize: uint32(len(big)), PktNum: uint16(pkt), ReqNum: reqNum}, big[lo:hi])
	}
	// A full multi-packet request as one RX burst.
	f.Add(mkReq(0, 8), mkReq(1, 8), mkReq(2, 8))
	// Out-of-order and cross-request interleavings.
	f.Add(mkReq(2, 8), mkReq(0, 8), mkReq(1, 8))
	f.Add(mkReq(0, 8), mkReq(0, 16), mkReq(1, 8))
	// Bursts mixing data with control and junk.
	f.Add(mkReq(0, 8), fuzzFrame(wire.Header{PktType: wire.PktRFR, ReqNum: 8, PktNum: 1}, nil), []byte{0xE5})
	f.Add([]byte{}, []byte{0xFF, 0x00}, fuzzFrame(wire.Header{PktType: wire.PktPing}, nil))

	f.Fuzz(func(t *testing.T, a, b, c []byte) {
		tr := newQueueTransport()
		nx := echoNexus()
		srv := NewRpc(nx, Config{Transport: tr, Clock: sim.NewWallClock()})
		cli := transport.Addr{Node: 7, Port: 0}
		for _, fr := range [][]byte{a, b, c} {
			if len(fr) > tr.MTU() {
				fr = fr[:tr.MTU()]
			}
			tr.inject(fr, cli)
		}
		srv.RunEventLoopOnce() // one burst through pollRX
		srv.RunEventLoopOnce() // drain anything the first pass produced

		// The endpoint must still serve a fresh well-formed request.
		before := srv.Stats.HandlersRun
		tr.inject(fuzzFrame(wire.Header{PktType: wire.PktReq, ReqType: echoType,
			MsgSize: 4, PktNum: 0, ReqNum: 8 + 1024}, []byte("ping")), transport.Addr{Node: 9})
		srv.RunEventLoopOnce()
		if srv.Stats.HandlersRun != before+1 {
			t.Fatalf("well-formed request did not run the handler after fuzzed burst (%d -> %d)",
				before, srv.Stats.HandlersRun)
		}
	})
}

// FuzzProcessPkt throws arbitrary frames at both halves of the RX path
// — the server half (request/RFR handling, lazy session creation) and
// the client half (response/CR handling against a busy slot) — and
// then checks the endpoints still complete a well-formed RPC. The RX
// path must never panic or wedge on malformed, stale, replayed or
// hostile packets: it sits directly behind the unauthenticated
// datagram socket.
func FuzzProcessPkt(f *testing.F) {
	payload := []byte("0123456789abcdef")
	seeds := [][]byte{
		fuzzFrame(wire.Header{PktType: wire.PktReq, ReqType: echoType, MsgSize: 16, PktNum: 0, ReqNum: 8}, payload),
		fuzzFrame(wire.Header{PktType: wire.PktReq, ReqType: echoType, MsgSize: 5000, PktNum: 0, ReqNum: 16}, payload),
		fuzzFrame(wire.Header{PktType: wire.PktResp, ReqType: echoType, MsgSize: 16, PktNum: 0, ReqNum: 8}, payload),
		fuzzFrame(wire.Header{PktType: wire.PktCR, ReqType: echoType, MsgSize: 5000, PktNum: 1, ReqNum: 8}, nil),
		fuzzFrame(wire.Header{PktType: wire.PktRFR, ReqType: echoType, MsgSize: 16, PktNum: 1, ReqNum: 8}, nil),
		fuzzFrame(wire.Header{PktType: wire.PktPing}, nil),
		fuzzFrame(wire.Header{PktType: wire.PktResp, ReqType: echoType, MsgSize: 1 << 23, PktNum: 0, ReqNum: 8}, payload),
		// Replies reporting the server's endpoint delay: a small one, and
		// one past any round trip (its fabric sample clamps to 0).
		fuzzFrame(wire.Header{PktType: wire.PktCR, MsgSize: 5000, PktNum: 0, ReqNum: 8, EndpointDelay: 3}, nil),
		fuzzFrame(wire.Header{PktType: wire.PktResp, MsgSize: 16, PktNum: 0, ReqNum: 8, EndpointDelay: wire.MaxEndpointDelay}, payload),
		{0xE5, 0xFF},
		nil,
	}
	for _, s := range seeds {
		f.Add(s, s)
	}
	f.Fuzz(func(t *testing.T, toServer, toClient []byte) {
		sched := sim.NewScheduler(3)
		fab, err := simnet.New(sched, simnet.Config{Profile: simnet.CX4(), Topology: simnet.SingleSwitch(2)})
		if err != nil {
			t.Fatal(err)
		}
		nx := echoNexus()
		mk := func(node int) *Rpc {
			return NewRpc(nx, Config{
				Transport: fab.AttachEndpoint(node), Clock: sched, Sched: sched, LinkRateGbps: 25,
			})
		}
		cli, srv := mk(0), mk(1)
		s, err := cli.CreateSession(srv.LocalAddr())
		if err != nil {
			t.Fatal(err)
		}

		// Put a request in flight so the fuzzed "response" frames can
		// hit a busy client slot. A hostile frame may legitimately
		// wedge or fail this request (e.g. a spoofed higher request
		// number clobbers its server slot — the paper's protocol
		// assumes authentic packets), so only bounded time and a clean
		// teardown are asserted for it, not completion.
		req, resp := cli.Alloc(2000), cli.Alloc(4096)
		cli.EnqueueRequest(s, echoType, req, resp, func(error) {})

		// Inject the fuzz frames from plausible and implausible
		// sources, interleaved with the live exchange.
		srv.processPkt(toServer, cli.LocalAddr())
		srv.processPkt(toServer, transport.Addr{Node: 55, Port: 9}) // spoofed stranger
		cli.processPkt(toClient, srv.LocalAddr())
		sched.RunUntil(20 * sim.Millisecond)

		// The client must tear down cleanly, and the server must keep
		// serving fresh clients. (A spoofed frame can poison the lazy
		// server-side state of the *old* client address — sessions are
		// created on first packet, standing in for eRPC's connect
		// handshake — so the recovery probe uses a new endpoint.)
		cli.DestroySession(s)
		cli2 := mk(0)
		s2, err := cli2.CreateSession(srv.LocalAddr())
		if err != nil {
			t.Fatal(err)
		}
		done := false
		req2, resp2 := cli2.Alloc(32), cli2.Alloc(64)
		cli2.EnqueueRequest(s2, echoType, req2, resp2, func(err error) {
			if err != nil {
				t.Errorf("post-fuzz rpc failed: %v", err)
			}
			done = true
		})
		sched.RunUntil(40 * sim.Millisecond)
		if !done {
			t.Fatal("RPC from a fresh client did not complete after fuzzed packet injection")
		}
	})
}
