package core

import (
	"fmt"
	"testing"

	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/wire"
)

// hdrTransport is a queueTransport that records the header of every
// frame the endpoint sends, in order; the test plays the peer from
// them.
type hdrTransport struct {
	queueTransport
	sent []wire.Header
}

func (h *hdrTransport) SendBurst(frames []transport.Frame) {
	for _, f := range frames {
		var hd wire.Header
		if err := hd.Decode(f.Data); err != nil {
			panic(err)
		}
		h.sent = append(h.sent, hd)
	}
}

// starveRig is a client endpoint with one session whose server the test
// plays. Slot 0 holds a request of DefaultCredits+1 packets and has sent
// DefaultCredits of them; slots 1-3 hold 1-packet requests enqueued
// while the session had no credits.
type starveRig struct {
	t    *testing.T
	clk  *manualClock
	tr   *hdrTransport
	r    *Rpc
	s    *Session
	errs [4]error
	done [4]bool
	seen map[[2]int]bool // {slot, packet} of every request packet sent
}

const starveRTO = sim.Millisecond

func newStarveRig(t *testing.T) *starveRig {
	t.Helper()
	g := &starveRig{t: t, clk: &manualClock{t: sim.Microsecond}, seen: map[[2]int]bool{}}
	g.tr = &hdrTransport{queueTransport: *newQueueTransport()}
	g.r = NewRpc(echoNexus(), Config{
		Transport:      g.tr,
		Clock:          g.clk,
		RTO:            starveRTO,
		RTOMin:         starveRTO,
		RTOMax:         starveRTO,
		MaxRetransmits: 1,
	})
	s, err := g.r.CreateSession(transport.Addr{Node: 2})
	if err != nil {
		t.Fatal(err)
	}
	g.s = s
	for i := range g.done {
		size := 8
		if i == 0 {
			size = (DefaultCredits + 1) * g.r.dataPerPkt
		}
		g.r.EnqueueRequest(s, echoType, g.r.Alloc(size), g.r.Alloc(8), func(err error) {
			g.done[i], g.errs[i] = true, err
		})
	}
	if got := s.slots[0].numReqPkts; got != DefaultCredits+1 {
		t.Fatalf("slot 0 request has %d packets, want %d", got, DefaultCredits+1)
	}
	sent := g.pass()
	if len(sent) != DefaultCredits || s.Credits() != 0 {
		t.Fatalf("setup: %d packets sent (want slot 0's first %d), %d credits left",
			len(sent), DefaultCredits, s.Credits())
	}
	return g
}

// pass injects the server's packets, runs one event-loop pass and
// returns the request packets sent since the last pass (those of the
// pass, and in setup those the enqueues flushed), as "slot/packet".
func (g *starveRig) pass(in ...[]byte) []string {
	for _, f := range in {
		g.tr.inject(f, transport.Addr{Node: 2})
	}
	g.r.RunEventLoopOnce()
	defer func() { g.tr.sent = g.tr.sent[:0] }()
	var out []string
	for _, h := range g.tr.sent {
		if h.PktType != wire.PktReq {
			continue
		}
		slot := int(h.ReqNum % DefaultNumSlots)
		g.seen[[2]int{slot, int(h.PktNum)}] = true
		out = append(out, fmt.Sprintf("%d/%d", slot, h.PktNum))
	}
	return out
}

// expect runs one pass over in and checks that it flushed exactly want.
func (g *starveRig) expect(step string, want []string, in ...[]byte) {
	g.t.Helper()
	if got := g.pass(in...); fmt.Sprint(got) != fmt.Sprint(want) {
		g.t.Fatalf("%s: flushed %v, want %v", step, got, want)
	}
}

// reply builds a server→client packet for slot's current request.
func (g *starveRig) reply(slot int, typ wire.PktType, pkt int, msgSize int) []byte {
	ss := &g.s.slots[slot]
	var payload []byte
	if typ == wire.PktResp {
		payload = make([]byte, msgSize)
	}
	return fuzzFrame(wire.Header{
		PktType:    typ,
		ReqType:    echoType,
		MsgSize:    uint32(msgSize),
		DstSession: g.s.num,
		PktNum:     uint16(pkt),
		ReqNum:     ss.reqNum,
	}, payload)
}

func (g *starveRig) cr(slot, pkt int) []byte { return g.reply(slot, wire.PktCR, pkt, 0) }
func (g *starveRig) resp(slot int) []byte    { return g.reply(slot, wire.PktResp, 0, 8) }

// finish plays the server until all four requests have completed: each
// pass, a request whose last packet was sent gets its response, and one
// that is still sending a CR for its oldest unacknowledged packet.
func (g *starveRig) finish(wantErr0 error) {
	g.t.Helper()
	for pass := 0; pass < 100; pass++ {
		var in [][]byte
		for i := range g.done {
			ss := &g.s.slots[i]
			switch {
			case g.done[i]:
			case g.seen[[2]int{i, ss.numReqPkts - 1}]:
				in = append(in, g.resp(i))
			case g.seen[[2]int{i, ss.reqAcked}]:
				in = append(in, g.cr(i, ss.reqAcked))
			}
		}
		g.pass(in...)
		if g.done == [4]bool{true, true, true, true} {
			break
		}
	}
	for i, ok := range g.done {
		if !ok {
			g.t.Fatalf("slot %d never completed: %d credits, slot sent %d of %d packets",
				i, g.s.Credits(), g.s.slots[i].reqSent, g.s.slots[i].numReqPkts)
		}
	}
	if g.errs[0] != wantErr0 {
		g.t.Fatalf("slot 0 completed with %v, want %v", g.errs[0], wantErr0)
	}
	for i, err := range g.errs[1:] {
		if err != nil {
			g.t.Fatalf("slot %d failed: %v", i+1, err)
		}
	}
	if g.s.Credits() != DefaultCredits {
		g.t.Fatalf("%d credits after all requests completed, want %d", g.s.Credits(), DefaultCredits)
	}
}

// TestStarvedSlotsResume: slots that found the session out of credits
// send in the first flush after credits reach them, in slot order,
// whichever path returns the credits — an explicit credit return (CR),
// the implicit return of a first response packet, go-back-N rollback,
// a reject, a failed request — and every request completes. Slot 0
// takes back a credit it still needs before a later slot sees it.
func TestStarvedSlotsResume(t *testing.T) {
	t.Run("cr", func(t *testing.T) {
		g := newStarveRig(t)
		g.expect("CR 0", []string{"0/32"}, g.cr(0, 0))
		g.expect("CR 1", []string{"1/0"}, g.cr(0, 1))
		g.expect("CR 2", []string{"2/0"}, g.cr(0, 2))
		g.expect("CR 3", []string{"3/0"}, g.cr(0, 3))
		g.finish(nil)
	})
	t.Run("cr-burst", func(t *testing.T) {
		g := newStarveRig(t)
		g.expect("CRs 0-2", []string{"0/32", "1/0", "2/0"}, g.cr(0, 0), g.cr(0, 1), g.cr(0, 2))
		g.expect("CR 3", []string{"3/0"}, g.cr(0, 3))
		g.finish(nil)
	})
	t.Run("first-response", func(t *testing.T) {
		g := newStarveRig(t)
		g.expect("CR 0", []string{"0/32"}, g.cr(0, 0))
		// The response returns the credits of packets 1-32 at once.
		g.expect("response", []string{"1/0", "2/0", "3/0"}, g.resp(0))
		g.finish(nil)
	})
	t.Run("rollback", func(t *testing.T) {
		g := newStarveRig(t)
		g.expect("CR 0", []string{"0/32"}, g.cr(0, 0))
		// Packet 1 is lost: slot 0 goes back to it and takes back
		// every credit it returned.
		g.clk.t += 2 * starveRTO
		want := make([]string, 0, DefaultCredits)
		for k := 1; k <= DefaultCredits; k++ {
			want = append(want, fmt.Sprintf("0/%d", k))
		}
		g.expect("rollback", want)
		if g.r.Stats.Retransmits != 1 {
			t.Fatalf("Retransmits = %d, want 1", g.r.Stats.Retransmits)
		}
		g.expect("CR 1", []string{"1/0"}, g.cr(0, 1))
		g.expect("CR 2", []string{"2/0"}, g.cr(0, 2))
		g.expect("CR 3", []string{"3/0"}, g.cr(0, 3))
		g.finish(nil)
	})
	t.Run("reject", func(t *testing.T) {
		g := newStarveRig(t)
		// Slot 0 parks in reject backoff and hands its credits on.
		g.expect("reject", []string{"1/0", "2/0", "3/0"}, g.reply(0, wire.PktReject, 0, 0))
		g.expect("responses", nil, g.resp(1), g.resp(2), g.resp(3))
		g.clk.t += 2 * starveRTO
		want := make([]string, 0, DefaultCredits)
		for k := 0; k < DefaultCredits; k++ {
			want = append(want, fmt.Sprintf("0/%d", k))
		}
		g.expect("retry", want)
		g.finish(nil)
	})
	t.Run("failed", func(t *testing.T) {
		g := newStarveRig(t)
		g.expect("CR 0", []string{"0/32"}, g.cr(0, 0))
		g.clk.t += 2 * starveRTO
		g.pass() // rollback: the budget's one retransmission
		g.clk.t += 4 * starveRTO
		g.expect("timeout", []string{"1/0", "2/0", "3/0"})
		if !g.done[0] || g.errs[0] != ErrTimeout {
			t.Fatalf("slot 0: done %v, err %v; want ErrTimeout", g.done[0], g.errs[0])
		}
		g.finish(ErrTimeout)
	})
}
