package core

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/wire"
)

// unixClock is a Clock the test sets that also places its readings on
// CLOCK_REALTIME (sim.UnixClock), as the wall clock does.
type unixClock struct{ t sim.Time }

const unixEpoch = int64(1_700_000_000 * sim.Second)

func (c *unixClock) Now() sim.Time              { return c.t }
func (c *unixClock) NowUnix() (sim.Time, int64) { return c.t, unixEpoch + int64(c.t) }

// unixAt is loop-clock time t on CLOCK_REALTIME: a kernel stamp.
func unixAt(t sim.Time) int64 { return unixEpoch + int64(t) }

// injectStamped queues a frame the kernel received at stamp.
func (q *queueTransport) injectStamped(frame []byte, from transport.Addr, stamp int64) {
	q.inject(frame, from)
	q.rq[len(q.rq)-1].RxStamp = stamp
}

// hostDelayRig is a client endpoint on a queueTransport and a unixClock,
// one session, every RTT sample recorded through RTTHook.
type hostDelayRig struct {
	t       *testing.T
	clk     *unixClock
	tr      *queueTransport
	r       *Rpc
	s       *Session
	samples []sim.Time
	reqNum  uint64
	// txDwell, when set, is how long after the request's stamp its
	// flush ended: the loop runs its next pass that much later, back to
	// back as the loop goroutine does after a pass that did work, or
	// after a park if parked.
	txDwell sim.Time
	parked  bool
}

func newHostDelayRig(t *testing.T, opts Opts) *hostDelayRig {
	g := &hostDelayRig{t: t, clk: &unixClock{t: sim.Millisecond}, tr: newQueueTransport()}
	g.r = NewRpc(echoNexus(), Config{Transport: g.tr, Clock: g.clk, Opts: opts})
	g.r.RTTHook = func(rtt sim.Time) { g.samples = append(g.samples, rtt) }
	s, err := g.r.CreateSession(transport.Addr{Node: 2})
	if err != nil {
		t.Fatal(err)
	}
	g.s = s
	return g
}

// echo runs one 32 B RPC whose response reaches the client's kernel rtt
// less cliDelay after the request left, and its loop cliDelay later;
// the response reports srvDelay µs of server endpoint delay. stamped
// false delivers it without a kernel stamp.
func (g *hostDelayRig) echo(rtt, cliDelay sim.Time, srvDelay uint16, stamped bool) {
	g.t.Helper()
	sent := g.tr.sent
	done := false
	g.r.EnqueueRequest(g.s, echoType, g.r.Alloc(32), g.r.Alloc(32), func(err error) {
		if err != nil {
			g.t.Fatal(err)
		}
		done = true
	})
	// A paced request leaves from the wheel: step the clock until it has.
	for g.r.RunEventLoopOnce(); g.tr.sent == sent; g.r.RunEventLoopOnce() {
		g.clk.t += wheelGran
	}
	g.reqNum += DefaultNumSlots // slot 0 every time: the last RPC freed it
	if g.txDwell > 0 {
		g.clk.t += g.txDwell
		g.r.backToBack = !g.parked
		g.r.RunEventLoopOnce()
		g.r.backToBack = false
	}
	g.clk.t += rtt - g.txDwell
	frame := fuzzFrame(wire.Header{PktType: wire.PktResp, ReqType: echoType, MsgSize: 32,
		PktNum: 0, ReqNum: g.reqNum, EndpointDelay: srvDelay}, make([]byte, 32))
	var stamp int64
	if stamped {
		stamp = unixAt(g.clk.t - cliDelay)
	}
	g.tr.injectStamped(frame, transport.Addr{Node: 2}, stamp)
	g.r.RunEventLoopOnce()
	if !done {
		g.t.Fatalf("RPC %d did not complete", g.reqNum/DefaultNumSlots)
	}
}

// checkFullRTTs: the RTO estimator's and RTTHook's samples are whole
// round trips, host delay included.
func (g *hostDelayRig) checkFullRTTs(want []sim.Time) {
	g.t.Helper()
	if len(g.samples) != len(want) {
		g.t.Fatalf("%d RTT samples, want %d", len(g.samples), len(want))
	}
	for i := range want {
		if g.samples[i] != want[i] {
			g.t.Fatalf("RTTHook sample %d = %v, want the whole round trip %v", i, g.samples[i], want[i])
		}
	}
	if srtt := g.s.SRTT(); srtt < min(want[0], want[len(want)-1])/2 {
		g.t.Fatalf("SRTT %v: the RTO estimator lost the host delay of samples around %v", srtt, want[0])
	}
}

// TestHostDelayBypassesTimely: 200 µs round trips made only of host
// delay — 150 µs reported by the server, 50 µs between the client's
// kernel stamp and its loop — leave a fabric sample of 0: Timely is
// bypassed and the rate limiter never paces, while the RTO estimator
// sees the 200 µs. The same samples unstamped and unreported, as every
// sample was before the split, each update Timely.
func TestHostDelayBypassesTimely(t *testing.T) {
	const n = 20
	const rtt = 200 * sim.Microsecond
	want := make([]sim.Time, n)
	for i := range want {
		want[i] = rtt
	}

	g := newHostDelayRig(t, Opts{})
	for i := 0; i < n; i++ {
		g.echo(rtt, 50*sim.Microsecond, 150, true)
	}
	st := g.r.Stats
	if st.TimelyUpdates != 0 || st.PktsPaced != 0 || !g.s.cc.timely.Uncongested() {
		t.Fatalf("host-only samples: TimelyUpdates %d, PktsPaced %d, rate %.3g of link %.3g; want 0, 0, link",
			st.TimelyUpdates, st.PktsPaced, g.s.CCRate(), g.r.cfg.LinkRateGbps*1e9/8)
	}
	g.checkFullRTTs(want)
	if srtt := g.s.SRTT(); srtt != rtt {
		t.Fatalf("SRTT %v after %d samples of %v", srtt, n, rtt)
	}

	g = newHostDelayRig(t, Opts{})
	for i := 0; i < n; i++ {
		g.echo(rtt, 50*sim.Microsecond, 0, false)
	}
	if got := g.r.Stats.TimelyUpdates; got != n {
		t.Fatalf("unsplit 200 µs samples: TimelyUpdates %d, want %d", got, n)
	}
}

// TestFabricDelayEngagesTimely: the same 200 µs of host delay plus
// fabric delay of 150 µs, 300 µs on every other sample, updates Timely
// on every sample; the rising samples bring the rate below line rate
// and later requests leave through the rate limiter. The RTO estimator
// sees the whole round trips.
func TestFabricDelayEngagesTimely(t *testing.T) {
	const n = 20
	g := newHostDelayRig(t, Opts{})
	var want []sim.Time
	for i := 0; i < n; i++ {
		fabric := 150 * sim.Microsecond * sim.Time(1+i%2)
		rtt := 200*sim.Microsecond + fabric
		want = append(want, rtt)
		g.echo(rtt, 50*sim.Microsecond, 150, true)
	}
	st := g.r.Stats
	if st.TimelyUpdates != n {
		t.Fatalf("TimelyUpdates %d, want %d: every sample with 150 µs or more of fabric delay updates Timely", st.TimelyUpdates, n)
	}
	if st.PktsPaced == 0 || g.s.cc.timely.Uncongested() {
		t.Fatalf("PktsPaced %d, rate %.3g of link %.3g: a rising fabric delay should leave line rate and pace",
			st.PktsPaced, g.s.CCRate(), g.r.cfg.LinkRateGbps*1e9/8)
	}
	g.checkFullRTTs(want)
}

// TestHostDelayOverRTTClampsToZero: a reported endpoint delay larger
// than the whole round trip (4095 µs against 300 µs) is a fabric sample
// of 0, not a negative one. With the bypass off Timely takes every
// sample; had it been given -3.8 ms it would remember that as its last
// RTT and read the next, 100 µs sample as a 3.9 ms rise, leaving line
// rate. From 0 the next sample is its first and the rate stays at link.
func TestHostDelayOverRTTClampsToZero(t *testing.T) {
	g := newHostDelayRig(t, Opts{DisableTimelyBypass: true})
	g.echo(300*sim.Microsecond, 0, wire.MaxEndpointDelay, true)
	g.echo(100*sim.Microsecond, 0, 0, true)
	if got := g.r.Stats.TimelyUpdates; got != 2 {
		t.Fatalf("TimelyUpdates %d, want 2", got)
	}
	if !g.s.cc.timely.Uncongested() {
		t.Fatalf("rate %.3g below link %.3g: Timely was fed a negative sample", g.s.CCRate(), g.r.cfg.LinkRateGbps*1e9/8)
	}
	g.checkFullRTTs([]sim.Time{300 * sim.Microsecond, 100 * sim.Microsecond})
}

// TestTxDwellBypassesTimely: the client's own time between stamping a
// request and the end of the flush that carried it is host delay too.
// 200 µs round trips of which the server reports 30 µs, the client's
// RX side holds 20 µs and its TX side 150 µs are bypassed when the loop
// ran its next pass back to back, which bounds the flush's end. Had
// the next pass come after a park or by hand, that read says nothing
// about the flush: the 150 µs count as fabric and update Timely.
func TestTxDwellBypassesTimely(t *testing.T) {
	const n = 20
	const rtt = 200 * sim.Microsecond
	for _, backToBack := range []bool{true, false} {
		g := newHostDelayRig(t, Opts{})
		g.txDwell, g.parked = 150*sim.Microsecond, !backToBack
		for i := 0; i < n; i++ {
			g.echo(rtt, 20*sim.Microsecond, 30, true)
		}
		want := uint64(0)
		if !backToBack {
			want = n
		}
		if got := g.r.Stats.TimelyUpdates; got != want {
			t.Fatalf("back to back %v: TimelyUpdates %d, want %d", backToBack, got, want)
		}
		if srtt := g.s.SRTT(); srtt != rtt {
			t.Fatalf("back to back %v: SRTT %v, want the whole round trip %v", backToBack, srtt, rtt)
		}
	}
}

// TestPassLogFlushEnd: a packet's flush ends at the first logged
// top-of-pass read after its stamp, if that pass ran back to back; not
// known for a stamp before the log's oldest entry or after its newest,
// nor once the ring has wrapped past it.
func TestPassLogFlushEnd(t *testing.T) {
	var l passLog
	if got := l.flushEnd(5); got != 0 {
		t.Fatalf("empty log: flushEnd %v", got)
	}
	for i, b := range []bool{false, true, true, false, true} { // reads at 10, 20, ..., 50
		l.record(sim.Time(10*(i+1)), b)
	}
	for _, c := range []struct{ tx, want sim.Time }{
		{5, 0},   // older than the log's oldest read
		{10, 20}, // stamped by the read at 10: its pass ended by 20
		{15, 20}, // stamped after the RX burst of that pass
		{20, 30},
		{30, 0},  // the pass after it followed a park
		{45, 50}, // its next pass ran back to back
		{50, 0},  // its pass has not ended
	} {
		if got := l.flushEnd(c.tx); got != c.want {
			t.Errorf("flushEnd(%v) = %v, want %v", c.tx, got, c.want)
		}
	}
	for i := 0; i < passLogLen; i++ {
		l.record(sim.Time(100+i), true)
	}
	if got := l.flushEnd(45); got != 0 {
		t.Fatalf("flushEnd of a pass the ring wrapped past = %v, want 0", got)
	}
	if got := l.flushEnd(100 + passLogLen - 2); got != 100+passLogLen-1 {
		t.Fatalf("flushEnd of the newest full pass = %v", got)
	}
}

// TestServerReportsEndpointDelay: each reply reports the time from the
// kernel stamp of the packet it answers to its flush. A CR answers
// its request packet, response packet 0 the request's last packet (so
// a worker handler's time counts), response packet k >= 1 the RFR that
// asked for it. An unstamped packet reports 0; a delay past the header
// field saturates.
func TestServerReportsEndpointDelay(t *testing.T) {
	clk := &unixClock{t: sim.Second}
	tr, out := newQueueTransport(), newQueueTransport()
	tr.peer = out
	nx := echoNexus()
	const workerType = 2
	handled := make(chan struct{}, 1)
	nx.Register(workerType, Handler{RunInWorker: true, Fn: func(ctx *ReqContext) {
		out := ctx.AllocResponse(len(ctx.Req))
		copy(out, ctx.Req)
		ctx.EnqueueResponse()
		handled <- struct{}{}
	}})
	srv := NewRpc(nx, Config{Transport: tr, Clock: clk})
	cli := transport.Addr{Node: 7}
	data := srv.DataPerPkt()

	// replies runs one pass over the queued packets and returns what the
	// server sent.
	replies := func() []wire.Header {
		t.Helper()
		srv.RunEventLoopOnce()
		var hs []wire.Header
		for _, f := range out.rq {
			var h wire.Header
			if err := h.Decode(f.Data); err != nil {
				t.Fatal(err)
			}
			hs = append(hs, h)
		}
		transport.ReleaseBurst(out.rq)
		out.rq = out.rq[:0]
		return hs
	}
	req := func(reqNum uint64, size, pkt int, reqType uint8) []byte {
		return fuzzFrame(wire.Header{PktType: wire.PktReq, ReqType: reqType, MsgSize: uint32(size),
			PktNum: uint16(pkt), ReqNum: reqNum}, make([]byte, min(data, size-pkt*data)))
	}
	check := func(what string, h wire.Header, typ wire.PktType, pkt int, want uint16) {
		t.Helper()
		if h.PktType != typ || int(h.PktNum) != pkt || h.EndpointDelay != want {
			t.Fatalf("%s: sent %v pkt %d delay %d µs, want %v pkt %d delay %d µs", what, h.PktType, h.PktNum, h.EndpointDelay, typ, pkt, want)
		}
	}

	// One packet, held 120 µs before the loop read the clock.
	clk.t += sim.Millisecond
	tr.injectStamped(req(8, 32, 0, echoType), cli, unixAt(clk.t-120*sim.Microsecond))
	hs := replies()
	if len(hs) != 1 {
		t.Fatalf("sent %d packets for a one-packet echo", len(hs))
	}
	check("response to a one-packet request", hs[0], wire.PktResp, 0, 120)

	// Three packets in one burst: CRs for the first two at 30 and 40 µs,
	// response 0 from the last packet's 50 µs.
	clk.t += sim.Millisecond
	size := 3 * data
	for k := 0; k < 3; k++ {
		tr.injectStamped(req(16, size, k, echoType), cli, unixAt(clk.t-sim.Time(30+10*k)*sim.Microsecond))
	}
	hs = replies()
	if len(hs) != 3 {
		t.Fatalf("sent %d packets for a three-packet request, want 2 CRs and response 0", len(hs))
	}
	check("CR 0", hs[0], wire.PktCR, 0, 30)
	check("CR 1", hs[1], wire.PktCR, 1, 40)
	check("response 0", hs[2], wire.PktResp, 0, 50)

	// An RFR for response packet 1, stamped 70 µs back; one for packet
	// 2 without a stamp; one for packet 1 again 10 ms back (saturates).
	clk.t += sim.Millisecond
	rfr := func(pkt int) []byte {
		return fuzzFrame(wire.Header{PktType: wire.PktRFR, ReqType: echoType, MsgSize: uint32(size), PktNum: uint16(pkt), ReqNum: 16}, nil)
	}
	tr.injectStamped(rfr(1), cli, unixAt(clk.t-70*sim.Microsecond))
	tr.inject(rfr(2), cli)
	tr.injectStamped(rfr(1), cli, unixAt(clk.t-10*sim.Millisecond))
	hs = replies()
	if len(hs) != 3 {
		t.Fatalf("sent %d packets for 3 RFRs", len(hs))
	}
	check("response 1", hs[0], wire.PktResp, 1, 70)
	check("unstamped response 2", hs[1], wire.PktResp, 2, 0)
	check("response 1 after 10 ms", hs[2], wire.PktResp, 1, wire.MaxEndpointDelay)

	// A worker handler's response leaves 500 µs after its request was
	// read, 20 µs after the kernel received it: 520 µs.
	clk.t += sim.Millisecond
	tr.injectStamped(req(24, 32, 0, workerType), cli, unixAt(clk.t-20*sim.Microsecond))
	if hs := replies(); len(hs) != 0 {
		t.Fatalf("sent %v before the worker ran", hs)
	}
	<-handled
	clk.t += 500 * sim.Microsecond
	hs = replies()
	if len(hs) != 1 {
		t.Fatalf("sent %d packets for the worker's response", len(hs))
	}
	check("worker response", hs[0], wire.PktResp, 0, 520)
}

// TestEndpointDelayStampedAtFlush: a reply reports the server's delay up
// to the flush that carries it, not to its encoding. A dispatch-mode
// handler that works on for 200 µs after enqueueing its response, as a
// loop preempted mid-pass would, adds 200 µs to that response's report
// and to the CR encoded before it in the same pass: CR 0's request
// packet reached the kernel 30 µs before the pass read the clock, the
// last packet 20 µs.
func TestEndpointDelayStampedAtFlush(t *testing.T) {
	clk := &unixClock{t: sim.Second}
	tr, out := newQueueTransport(), newQueueTransport()
	tr.peer = out
	nx := NewNexus()
	const slowType = 3
	nx.Register(slowType, Handler{Fn: func(ctx *ReqContext) {
		ctx.AllocResponse(8)
		ctx.EnqueueResponse()
		clk.t += 200 * sim.Microsecond
	}})
	srv := NewRpc(nx, Config{Transport: tr, Clock: clk})
	size := srv.DataPerPkt() + 32
	for k, held := range []sim.Time{30, 20} {
		tr.injectStamped(fuzzFrame(wire.Header{PktType: wire.PktReq, ReqType: slowType, MsgSize: uint32(size),
			PktNum: uint16(k), ReqNum: 8}, make([]byte, min(srv.DataPerPkt(), size-k*srv.DataPerPkt()))),
			transport.Addr{Node: 7}, unixAt(clk.t-held*sim.Microsecond))
	}
	srv.RunEventLoopOnce()
	var got []wire.Header
	for _, f := range out.rq {
		var h wire.Header
		if err := h.Decode(f.Data); err != nil {
			t.Fatal(err)
		}
		got = append(got, h)
	}
	if len(got) != 2 || got[0].PktType != wire.PktCR || got[1].PktType != wire.PktResp {
		t.Fatalf("sent %v, want a CR and a response", got)
	}
	if got[0].EndpointDelay != 230 || got[1].EndpointDelay != 220 {
		t.Fatalf("CR reports %d µs, response %d µs; want 230 and 220: the time after encoding went unreported",
			got[0].EndpointDelay, got[1].EndpointDelay)
	}
}

// countingUnixClock is countingClock on CLOCK_REALTIME: a NowUnix is one
// read, as a Now is.
type countingUnixClock struct{ countingClock }

func (c *countingUnixClock) NowUnix() (sim.Time, int64) {
	t := c.Now()
	return t, unixAt(t)
}

// TestHostDelayCostsNoClockRead: relating kernel stamps to the loop
// clock takes no read of its own. A pass that takes a burst of eight
// stamped responses, splits their samples and issues eight requests
// reads the clock twice, as TestLoopClockReadsPerPass's passes do: at
// its top and as RecvBurst returns.
func TestHostDelayCostsNoClockRead(t *testing.T) {
	clk := &countingUnixClock{countingClock{t: sim.Second}}
	tr := newQueueTransport()
	r := NewRpc(echoNexus(), Config{Transport: tr, Clock: clk})
	s, err := r.CreateSession(transport.Addr{Node: 2})
	if err != nil {
		t.Fatal(err)
	}
	completed := 0
	for k := 0; k < DefaultNumSlots; k++ {
		req, resp := r.Alloc(32), r.Alloc(32)
		var issue func()
		issue = func() {
			r.EnqueueRequest(s, echoType, req, resp, func(err error) {
				if err != nil {
					t.Error(err)
				}
				if completed++; completed <= DefaultNumSlots {
					issue()
				}
			})
		}
		issue()
	}
	r.RunEventLoopOnce()
	for k := 0; k < DefaultNumSlots; k++ {
		tr.injectStamped(fuzzFrame(wire.Header{PktType: wire.PktResp, ReqType: echoType, MsgSize: 32,
			ReqNum: uint64(DefaultNumSlots + k), EndpointDelay: 5}, make([]byte, 32)), transport.Addr{Node: 2}, unixAt(clk.t))
	}
	before := clk.reads
	r.RunEventLoopOnce()
	if completed != DefaultNumSlots || tr.sent != 2*DefaultNumSlots {
		t.Fatalf("the pass completed %d RPCs, %d requests sent in all; want %d and %d", completed, tr.sent, DefaultNumSlots, 2*DefaultNumSlots)
	}
	if got := clk.reads - before; got != 2 {
		t.Fatalf("the pass read the clock %d times, want 2", got)
	}
}
