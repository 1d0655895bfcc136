//go:build linux && (amd64 || arm64)

package transport_test

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/transport"
)

// hopCounter is a UDP whose owner's receives are counted, and apart
// from them the receives made by the RecvBurst of the pass that follows
// a Wait that staged frames: the receives between a packet and its
// handler.
type hopCounter struct {
	*transport.UDP
	rx      *transport.RxCount
	found   bool // the last Wait staged frames, and no RecvBurst has run since
	hops    int  // Waits that staged frames
	between int  // receives the RecvBurst after such a Wait made
}

func newHopCounter(u *transport.UDP) *hopCounter {
	return &hopCounter{UDP: u, rx: transport.CountReceives(u)}
}

func (h *hopCounter) Wait(d time.Duration) bool {
	ok := h.UDP.Wait(d)
	if transport.Staged(h.UDP) > 0 && !h.found {
		h.found = true
		h.hops++
	}
	return ok
}

func (h *hopCounter) RecvBurst(frames []transport.Frame) int {
	before := h.rx.Calls
	n := h.UDP.RecvBurst(frames)
	if h.found {
		h.between += h.rx.Calls - before
		h.found = false
	}
	return n
}

// TestSerialEchoReceivesPerRPC counts the receives of a serial 32 B
// echo over UDP loopback between two endpoints that run their own
// loops (the benchmark's echo_w1), on every engine. Each hop's packet
// is found by a Wait, the awake wait's probe or a parked one, whose
// receive drains the socket; the pass that handles the packet must
// make no receive of its own. The log gives receive calls per RPC, both
// sides, and how many of them returned nothing.
func TestSerialEchoReceivesPerRPC(t *testing.T) {
	const total = 2000
	for _, newUDP := range []func(transport.Addr, string) (*transport.UDP, error){
		transport.NewUDP, transport.NewUDPMmsg, transport.NewUDPPerPacket,
	} {
		srvTr, err := newUDP(transport.Addr{Node: 1}, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srvTr.Close() })
		t.Run(srvTr.Engine(), func(t *testing.T) {
			cliTr, err := newUDP(transport.Addr{Node: 2}, "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { cliTr.Close() })
			if err := srvTr.AddPeer(cliTr.LocalAddr(), cliTr.BoundAddr().String()); err != nil {
				t.Fatal(err)
			}
			if err := cliTr.AddPeer(srvTr.LocalAddr(), srvTr.BoundAddr().String()); err != nil {
				t.Fatal(err)
			}
			srv, cli := newHopCounter(srvTr), newHopCounter(cliTr)

			nx := core.NewNexus()
			nx.Register(1, core.Handler{Fn: func(ctx *core.ReqContext) {
				out := ctx.AllocResponse(len(ctx.Req))
				copy(out, ctx.Req)
				ctx.EnqueueResponse()
			}})
			server := core.NewServer(nx, []core.Config{{Transport: srv, Clock: sim.NewWallClock()}}, 1)
			client := core.NewClient(nx, []core.Config{{Transport: cli, Clock: sim.NewWallClock()}})
			sess, err := client.CreateSession(0, server.Addrs())
			if err != nil {
				t.Fatal(err)
			}
			server.Start()
			client.Start()

			r := client.Rpc(0)
			done, errs := make(chan struct{}), 0
			r.Post(func() {
				req, resp := r.Alloc(32), r.Alloc(32)
				completed := 0
				var issue func()
				issue = func() {
					r.EnqueueRequest(sess, 1, req, resp, func(err error) {
						if err != nil {
							errs++
						}
						if completed++; completed == total {
							close(done)
							return
						}
						issue()
					})
				}
				issue()
			})
			select {
			case <-done:
			case <-time.After(30 * time.Second):
				t.Fatal("serial echoes did not finish") // the counters belong to the loops until they stop
			}
			client.Stop()
			server.Stop()
			if errs != 0 {
				t.Fatalf("%d of %d RPCs failed", errs, total)
			}

			calls := srv.rx.Calls + cli.rx.Calls
			empty := srv.rx.Empty + cli.rx.Empty
			hops := srv.hops + cli.hops
			t.Logf("%.2f receive calls per RPC, %.2f of them empty; %d of %d hops found by a Wait, %d receives between such a packet and its handler",
				float64(calls)/total, float64(empty)/total, hops, 2*total, srv.between+cli.between)
			if hops < total {
				t.Fatalf("%d of %d hops were found by a Wait, want at least half: the loops did not wait between hops", hops, 2*total)
			}
			if srv.between+cli.between != 0 {
				t.Fatalf("%d receives between a packet a Wait found and its handler (server %d, client %d), want 0: the pass received again after the Wait's receive drained the socket",
					srv.between+cli.between, srv.between, cli.between)
			}
		})
	}
}
