package erpc_test

import (
	"testing"
	"time"

	"repro/erpc"
	"repro/internal/transport"
)

// udpEngines lists what UDP.Engine can report on this host, so
// real-transport suites (adversity stress, alloc guard, drain, sharded
// echo, loopback bench) run over each: the batched engine with
// segmentation offload ("gso") where the kernel supports it, without
// ("mmsg") where compiled in, and the portable per-packet fallback
// always.
func udpEngines() []string {
	switch {
	case erpc.UDPGsoSupported():
		return []string{"gso", "mmsg", "per-packet"}
	case erpc.UDPMmsgSupported:
		return []string{"mmsg", "per-packet"}
	default:
		return []string{"per-packet"}
	}
}

// newUDPTransportEngine binds one socket on the named engine.
func newUDPTransportEngine(engine string, addr erpc.Addr, bind string) (*transport.UDP, error) {
	switch engine {
	case "per-packet":
		return erpc.NewUDPTransportPerPacket(addr, bind)
	case "mmsg":
		return erpc.NewUDPTransportMmsg(addr, bind)
	default:
		return erpc.NewUDPTransport(addr, bind)
	}
}

// listenUDPEngine binds sockets for the endpoints (node, 0..n-1) on
// ephemeral loopback ports on the named engine, closed with the test.
func listenUDPEngine(t testing.TB, engine string, node uint16, n int) []*transport.UDP {
	t.Helper()
	trs := make([]*transport.UDP, n)
	for i := range trs {
		tr, err := newUDPTransportEngine(engine, erpc.Addr{Node: node, Port: uint16(i)}, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { tr.Close() })
		if got := tr.Engine(); got != engine {
			t.Fatalf("socket runs on engine %q, want %q", got, engine)
		}
		trs[i] = tr
	}
	return trs
}

// echoPair is a server and a client endpoint on two loopback sockets of
// the named engine, with an echo handler for request type 1 and one
// session. Neither runs an event loop: the test drives both from its
// own goroutine, which is therefore the dispatch context of both (and
// may read their Stats).
type echoPair struct {
	srv, cli     *erpc.Rpc
	srvTr, cliTr *transport.UDP
	sess         *erpc.Session
}

func newEchoPair(tb testing.TB, engine string) *echoPair {
	tb.Helper()
	nx := erpc.NewNexus()
	nx.Register(1, erpc.Handler{Fn: func(ctx *erpc.ReqContext) {
		out := ctx.AllocResponse(len(ctx.Req))
		copy(out, ctx.Req)
		ctx.EnqueueResponse()
	}})
	p := &echoPair{
		srvTr: listenUDPEngine(tb, engine, 1, 1)[0],
		cliTr: listenUDPEngine(tb, engine, 2, 1)[0],
	}
	if err := p.srvTr.AddPeer(p.cliTr.LocalAddr(), p.cliTr.BoundAddr().String()); err != nil {
		tb.Fatal(err)
	}
	if err := p.cliTr.AddPeer(p.srvTr.LocalAddr(), p.srvTr.BoundAddr().String()); err != nil {
		tb.Fatal(err)
	}
	p.srv = erpc.NewRpc(nx, erpc.Config{Transport: p.srvTr, Clock: erpc.NewWallClock()})
	p.cli = erpc.NewRpc(nx, erpc.Config{Transport: p.cliTr, Clock: erpc.NewWallClock()})
	sess, err := p.cli.CreateSession(p.srv.LocalAddr())
	if err != nil {
		tb.Fatal(err)
	}
	p.sess = sess
	return p
}

// poll runs one event-loop iteration on both endpoints and, when
// neither made progress, parks the client briefly in its socket's wait
// (a wait that a packet ends allocates nothing).
func (p *echoPair) poll() {
	prog := p.cli.RunEventLoopOnce()
	prog = p.srv.RunEventLoopOnce() || prog
	if !prog {
		p.cli.WaitForWork(50 * time.Microsecond)
	}
}

// TestEchoZeroCopyCounters pins the zero-copy datapath on every engine
// with windowed echo RPCs: packet 0 of each request and of each
// response leaves as an alias of its msgbuf (Appendix C), so the two
// endpoints count exactly 2 zero-copy frames per RPC; and on the gso
// engine the window's same-size frames arrive UDP_GRO-coalesced and
// every coalesced segment is delivered aliasing its supersegment,
// none copied.
func TestEchoZeroCopyCounters(t *testing.T) {
	const (
		window = erpc.DefaultNumSlots
		total  = 400
	)
	for _, engine := range udpEngines() {
		t.Run(engine, func(t *testing.T) {
			p := newEchoPair(t, engine)
			issued, completed := 0, 0
			var issue func(req, resp *erpc.Buf)
			issue = func(req, resp *erpc.Buf) {
				if issued == total {
					return
				}
				issued++
				p.cli.EnqueueRequest(p.sess, 1, req, resp, func(err error) {
					if err != nil {
						t.Errorf("rpc: %v", err)
					}
					completed++
					issue(req, resp)
				})
			}
			for w := 0; w < window; w++ {
				issue(p.cli.Alloc(32), p.cli.Alloc(32))
			}
			for spins := 0; completed < total; spins++ {
				if spins > 5_000_000 {
					t.Fatalf("stalled: %d of %d completed", completed, total)
				}
				p.poll()
			}

			zc := p.cli.Stats.ZeroCopyTx + p.srv.Stats.ZeroCopyTx
			resent := p.cli.Stats.Retransmits + p.srv.Stats.Retransmits
			if zc < 2*total || (resent == 0 && zc != 2*total) {
				t.Fatalf("ZeroCopyTx = %d over %d RPCs (%d retransmits), want 2 per RPC", zc, total, resent)
			}
			aliased := p.cliTr.GroAliasedSegs.Load() + p.srvTr.GroAliasedSegs.Load()
			if engine == "gso" && aliased == 0 {
				t.Fatal("gso RX: no coalesced segment aliased")
			}
			if engine != "gso" && aliased != 0 {
				t.Fatalf("%s RX counted %d GRO segments", engine, aliased)
			}
		})
	}
}

// TestUringConstructorForwards pins the deprecated shim: the transport
// it returns runs on the engine NewUDPTransport selects.
func TestUringConstructorForwards(t *testing.T) {
	auto, err := erpc.NewUDPTransport(erpc.Addr{Node: 1}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer auto.Close()
	shim, err := erpc.NewUDPTransportUring(erpc.Addr{Node: 2}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer shim.Close()
	if shim.Engine() != auto.Engine() {
		t.Fatalf("NewUDPTransportUring engine = %q, NewUDPTransport engine = %q", shim.Engine(), auto.Engine())
	}
}
