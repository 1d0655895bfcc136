package core

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/wire"
)

// stampTransport is queueTransport plus a TX log: the packet type and
// the clock reading of every frame handed to SendBurst.
type stampTransport struct {
	queueTransport
	clock sim.Clock
	kinds []wire.PktType
	times []sim.Time
}

func newStampTransport(clock sim.Clock) *stampTransport {
	return &stampTransport{queueTransport: *newQueueTransport(), clock: clock}
}

func (s *stampTransport) SendBurst(frames []transport.Frame) {
	now := s.clock.Now()
	for _, f := range frames {
		var h wire.Header
		if err := h.Decode(f.Data); err != nil {
			panic(err)
		}
		s.kinds = append(s.kinds, h.PktType)
		s.times = append(s.times, now)
	}
}

// manualClock is a Clock the test sets.
type manualClock struct{ t sim.Time }

func (c *manualClock) Now() sim.Time { return c.t }

// gapClock is the wall clock and a record of every read. An awake wait
// reads the clock between yields, a microsecond apart or less, and so
// does everything else the park tests time. Where a wait should end, two
// adjacent reads further apart than maxReadGap mean the test goroutine
// was off the processor (a busy host, a hypervisor withholding the vCPU)
// or asleep when it mattered, and nothing the loop did decided the
// timing: the tests discard such a sample, count the discards, and fail
// when too few samples are left — which is also what a park that sleeps
// where it should watch the clock comes to, since it sleeps through the
// end of every wait.
type gapClock struct {
	sim.Clock
	reads []sim.Time
}

const maxReadGap = 100 * sim.Microsecond

func newGapClock() *gapClock {
	return &gapClock{Clock: sim.NewWallClock(), reads: make([]sim.Time, 0, 8192)}
}

func (c *gapClock) Now() sim.Time {
	now := c.Clock.Now()
	c.reads = append(c.reads, now)
	return now
}

// descheduledAt reports whether the two adjacent reads either side of t
// were more than maxReadGap apart.
func (c *gapClock) descheduledAt(t sim.Time) bool {
	i := sort.Search(len(c.reads), func(i int) bool { return c.reads[i] >= t })
	return i > 0 && i < len(c.reads) && c.reads[i]-c.reads[i-1] > maxReadGap
}

// firstAfter returns the first read later than t.
func (c *gapClock) firstAfter(t sim.Time) sim.Time {
	return c.reads[sort.Search(len(c.reads), func(i int) bool { return c.reads[i] > t })]
}

// parkRig is what the park tests time: an endpoint on a gapClock that
// paces every packet at wireBytes per interval, one session, the wheel's
// head brought to the present by a first pass (a test descheduled since
// the clock was made would otherwise find near deadlines beyond the
// wheel's horizon: clamped, early). head is that pass's clock read, the
// loop clock it set the wheel's head to: a test descheduled after it
// finds its deadlines that much nearer the horizon.
func parkRig(t *testing.T, wireBytes int, per sim.Time) (clk *gapClock, tr *stampTransport, r *Rpc, s *Session, head sim.Time) {
	clk = newGapClock()
	tr = newStampTransport(clk)
	r = NewRpc(echoNexus(), pacedCfg(tr, clk, float64(wireBytes)*1e9/float64(per)))
	s, err := r.CreateSession(transport.Addr{Node: 2})
	if err != nil {
		t.Fatal(err)
	}
	pass := len(clk.reads)
	r.RunEventLoopOnce()
	return clk, tr, r, s, clk.reads[pass]
}

// driveUntilSent runs the loop the way RunEventLoop does until n packets
// have left.
func driveUntilSent(t *testing.T, clk *gapClock, tr *stampTransport, r *Rpc, n int) {
	for deadline := clk.Now() + 100*sim.Millisecond; len(tr.times) < n; {
		if clk.Now() > deadline {
			t.Fatalf("%d of %d paced packets sent within 100 ms", len(tr.times), n)
		}
		if !r.RunEventLoopOnce() {
			r.WaitForWork(200 * time.Microsecond)
		}
	}
}

// countingClock counts its reads and advances on each by one
// nanosecond more than on the last, so two intervals are equal only if
// they lie between the same two reads (and a whole test stays inside
// one RTO-scan interval, whose own clock read would blur the count).
type countingClock struct {
	t     sim.Time
	reads int
}

func (c *countingClock) Now() sim.Time {
	c.reads++
	c.t += sim.Time(c.reads)
	return c.t
}

// pacedCfg forces every client packet through the rate limiter at a
// fixed rate: Timely's ceiling is set below the link's line rate and,
// with no congestion signal, Timely stays at its ceiling.
func pacedCfg(tr transport.Transport, clock sim.Clock, rate float64) Config {
	return Config{
		Transport:    tr,
		Clock:        clock,
		LinkRateGbps: rate * 8 / 1e9,
		Opts:         Opts{DisableRateLimiterBypass: true},
	}
}

// TestPacingChargesWireBytes pins what the rate limiter charges a
// packet, one rule whatever else its session has in flight. A
// request-data packet is charged the bytes it puts on the wire (header
// + its payload): at 10 MB/s a 32 B request is 4.8 µs of rate (charging
// it an MTU, 147.2 µs, held the next request back 30x too long), a full
// packet of a multi-packet request an MTU and its short last packet its
// own length. An RFR is charged an MTU: it releases an MTU-sized
// response packet from the server.
func TestPacingChargesWireBytes(t *testing.T) {
	const (
		rate = 10e6 // bytes/s
		n    = 4    // 32 B requests ahead of the two-packet one
		tail = 100  // payload of the two-packet request's last packet
		step = wheelGran
	)
	clk := &manualClock{t: sim.Millisecond}
	tr := newStampTransport(clk)
	r := NewRpc(echoNexus(), pacedCfg(tr, clk, rate))
	s, err := r.CreateSession(transport.Addr{Node: 2})
	if err != nil {
		t.Fatal(err)
	}
	// run steps the clock one wheel slot at a time, so a packet's
	// recorded departure is within one slot of its deadline.
	run := func(d sim.Time) {
		for end := clk.t + d; clk.t < end; clk.t += step {
			r.RunEventLoopOnce()
		}
	}
	gaps := func(kind wire.PktType) []sim.Time {
		var g []sim.Time
		last := sim.Time(-1)
		for i, k := range tr.kinds {
			if k != kind {
				continue
			}
			if last >= 0 {
				g = append(g, tr.times[i]-last)
			}
			last = tr.times[i]
		}
		return g
	}
	check := func(what string, got sim.Time, wireBytes int) {
		t.Helper()
		want := sim.Time(float64(wireBytes) * 1e9 / rate)
		if got < want-2*step || got > want+2*step {
			t.Fatalf("%s: gap is %v, want %v (%d wire bytes at %.0f MB/s)", what, got, want, wireBytes, rate/1e6)
		}
	}

	r.RunEventLoopOnce() // brings the wheel's head to the clock
	// All on one session, so every packet but the first joins others of
	// its session in flight: n 32 B requests, a request of one full
	// packet and one of tail bytes, and a last 32 B request whose
	// departure shows what the short packet was charged.
	for i := 0; i < n; i++ {
		r.EnqueueRequest(s, echoType, r.Alloc(32), r.Alloc(4*r.DataPerPkt()), func(error) {})
	}
	r.EnqueueRequest(s, echoType, r.Alloc(r.DataPerPkt()+tail), r.Alloc(32), func(error) {})
	r.EnqueueRequest(s, echoType, r.Alloc(32), r.Alloc(32), func(error) {})
	run(400 * sim.Microsecond)
	// The gap after a packet is what that packet was charged.
	req := gaps(wire.PktReq)
	for i, g := range req[:min(n, len(req))] {
		check(fmt.Sprintf("after 32 B request %d", i), g, wire.HeaderSize+32)
	}
	if len(req) != n+2 {
		t.Fatalf("request packets: %d gaps, want %d", len(req), n+2)
	}
	check("after the full first packet of the two-packet request", req[n], tr.MTU())
	check("after its short last packet", req[n+1], wire.HeaderSize+tail)
	if r.Stats.PktsPaced != n+3 {
		t.Fatalf("PktsPaced = %d, want %d", r.Stats.PktsPaced, n+3)
	}

	// The first slot's request (reqNum NumSlots, slot 0) gets the first
	// packet of a 4-packet response: the client asks for the other
	// three with RFRs, one MTU of rate apart.
	tr.inject(fuzzFrame(wire.Header{PktType: wire.PktResp, ReqType: echoType, MsgSize: uint32(4 * r.DataPerPkt()),
		DstSession: 0, PktNum: 0, ReqNum: uint64(DefaultNumSlots)}, make([]byte, r.DataPerPkt())), transport.Addr{Node: 2})
	run(600 * sim.Microsecond)
	rfr := gaps(wire.PktRFR)
	if len(rfr) != 2 {
		t.Fatalf("RFRs: %d gaps, want 2", len(rfr))
	}
	for _, g := range rfr {
		check("RFRs", g, tr.MTU())
	}
	if r.Stats.PktsPaced != n+3+3 {
		t.Fatalf("PktsPaced = %d, want %d", r.Stats.PktsPaced, n+3+3)
	}
}

// TestWaitForWorkHonoursWheelDeadline drives the loop the way
// RunEventLoop does, on the wall clock, with one packet in the wheel
// due in 300 µs and nothing else to do. The park must end at the
// wheel's deadline: a loop that sleeps its fixed timer instead sends
// the packet when the runtime delivers that timer, ~1.1 ms after it
// was armed. Median over the attempts, of 51, in which the test
// goroutine had the processor at the deadline (gapClock); at least 13
// must be left.
func TestWaitForWorkHonoursWheelDeadline(t *testing.T) {
	const (
		due      = 300 * sim.Microsecond
		attempts = 51
		floor    = 13
		maxLate  = 200 * sim.Microsecond
	)
	late := make([]sim.Time, 0, attempts)
	for a := 0; a < attempts; a++ {
		// Two 32 B requests at 48 B per 300 µs: the first leaves at
		// once, the second is due one interval later.
		clk, tr, r, s, head := parkRig(t, wire.HeaderSize+32, due)
		t0 := clk.Now()
		for i := 0; i < 2; i++ {
			r.EnqueueRequest(s, echoType, r.Alloc(32), r.Alloc(32), func(error) {})
		}
		if clk.Now()-head > maxReadGap {
			// Descheduled since the wheel's head was set: from there the
			// second packet may be beyond the horizon and leave early,
			// clamped.
			continue
		}
		driveUntilSent(t, clk, tr, r, 2)
		if tr.times[1] < t0+due-wheelGran {
			t.Fatalf("attempt %d: paced packet left %v early", a, t0+due-tr.times[1])
		}
		if !clk.descheduledAt(t0 + due) {
			late = append(late, tr.times[1]-(t0+due))
		}
	}
	if len(late) < floor {
		t.Fatalf("in %d of %d attempts the clock reads either side of the deadline were over %v apart, at most %d may be: the host is too busy to time a park, or the park sleeps",
			attempts-len(late), attempts, maxReadGap, attempts-floor)
	}
	sort.Slice(late, func(i, j int) bool { return late[i] < late[j] })
	t.Logf("lateness of a packet due in %v: min %v median %v max %v (%d attempts discarded)",
		due, late[0], late[len(late)/2], late[len(late)-1], attempts-len(late))
	if med := late[len(late)/2]; med >= maxLate {
		t.Fatalf("median lateness %v, want < %v: the park slept past the wheel's deadline", med, maxLate)
	}
}

// TestWaitForWorkKeepsTimeForBacklog is the same drive with a backlog:
// an 8-packet request at one MTU per 100 µs, eight packets in the wheel
// 100 µs apart, the first due at once and the last 119 µs inside the
// wheel's horizon. Each must leave at its own slot: no earlier than a
// wheel slot before it, and less than
// TestWaitForWorkHonoursWheelDeadline's bound after it in the median of
// the attempts, of 31, in which the test goroutine had the processor
// when the packet was due (gapClock; at least 8 must be left for each).
// A park that leaves a backlog to a timer sends them all together when
// the runtime delivers it, ~1.1 ms after it was armed.
func TestWaitForWorkKeepsTimeForBacklog(t *testing.T) {
	const (
		pkts     = 8
		step     = 100 * sim.Microsecond
		attempts = 31
		floor    = 8
		maxLate  = 200 * sim.Microsecond
	)
	var late [pkts][]sim.Time
	for a := 0; a < attempts; a++ {
		clk, tr, r, s, head := parkRig(t, new(queueTransport).MTU(), step)
		t0 := clk.Now()
		r.EnqueueRequest(s, echoType, r.Alloc(pkts*r.DataPerPkt()), r.Alloc(32), func(error) {})
		if clk.Now()-head > maxReadGap {
			// Descheduled since the wheel's head was set: from there the
			// last packet is beyond the horizon and leaves early, clamped.
			continue
		}
		driveUntilSent(t, clk, tr, r, pkts)
		for k, at := range tr.times {
			due := t0 + sim.Time(k)*step
			if at < due-wheelGran {
				t.Fatalf("attempt %d: packet %d left %v early", a, k, due-at)
			}
			if !clk.descheduledAt(due) {
				late[k] = append(late[k], at-due)
			}
		}
	}
	for k := 0; k < pkts; k++ {
		l := late[k]
		if len(l) < floor {
			t.Fatalf("packet %d: in %d of %d attempts the clock reads either side of its time were over %v apart, at most %d may be: the host is too busy to time a park, or the park sleeps",
				k, attempts-len(l), attempts, maxReadGap, attempts-floor)
		}
		sort.Slice(l, func(i, j int) bool { return l[i] < l[j] })
		if med := l[len(l)/2]; med >= maxLate {
			t.Fatalf("packet %d, due %v after the first: median lateness %v over %d attempts, want < %v: the park did not keep the wheel's time for a backlog",
				k, sim.Time(k)*step, med, len(l), maxLate)
		}
	}
	last := late[pkts-1]
	t.Logf("median lateness of the last of %d packets %v apart: %v (%d attempts discarded)",
		pkts, step, last[len(last)/2], attempts-len(last))
}

// TestWaitForWorkYieldsNoLongerThanAsked: with a packet due in 800 µs
// the wait is awake, and WaitForWork(100 µs) returns 100 µs after it
// first looks at the clock, not at the deadline: RunEventLoop looks at
// its stop channel as often as it asked to. Minimum over the attempts,
// of 11, that the test goroutine was not descheduled in (gapClock):
// between queueing the packets and the wait (the second packet would be
// due before the wait began) or when the wait was to end. At least 3
// must be left.
func TestWaitForWorkYieldsNoLongerThanAsked(t *testing.T) {
	const (
		due      = 800 * sim.Microsecond
		ask      = 100 * sim.Microsecond
		attempts = 11
		floor    = 3
	)
	best, kept := due, 0
	for a := 0; a < attempts; a++ {
		clk, tr, r, s, _ := parkRig(t, wire.HeaderSize+32, due)
		t0 := clk.Now()
		for i := 0; i < 2; i++ {
			r.EnqueueRequest(s, echoType, r.Alloc(32), r.Alloc(32), func(error) {})
		}
		r.RunEventLoopOnce() // the first request leaves, the second waits in the wheel
		ready := clk.Now()
		r.WaitForWork(time.Duration(ask))
		end := clk.Now()
		// The wait is timed from its own first read: finding the deadline
		// comes before it, a scan of 4000 wheel slots that the race
		// detector slows to hundreds of microseconds.
		start := clk.firstAfter(ready)
		waited := end - start
		if start-t0 > due/2 {
			continue
		}
		if len(tr.times) != 1 {
			t.Fatalf("attempt %d: %d packets sent before the wait, want 1", a, len(tr.times))
		}
		if waited < ask {
			t.Fatalf("attempt %d: waited %v with nothing to wake it, want >= %v", a, waited, ask)
		}
		if clk.descheduledAt(start + ask) {
			continue
		}
		kept++
		best = min(best, waited)
	}
	if kept < floor {
		t.Fatalf("in %d of %d attempts the test was off the processor before the wait or when it was to end, at most %d may be: the host is too busy to time a park",
			attempts-kept, attempts, attempts-floor)
	}
	if best >= due/2 {
		t.Fatalf("shortest WaitForWork(%v) took %v: the yield loop ran to the wheel's deadline (%v), not to d", ask, best, due)
	}
}

// TestRTTOneClockReadPerRxBurst pins the RX half of batched timestamps
// over a real transport: the RTT samples of one RX burst share one
// clock read — the loop clock's, taken as RecvBurst returns — so a burst
// of credit returns yields equal samples (the per-packet reads it
// replaces made them climb, which Timely reads as a rising gradient)
// and a pass costs two reads whatever the burst's size;
// Opts.DisableBatchedTimestamps restores a read per sample and per
// progress stamp.
func TestRTTOneClockReadPerRxBurst(t *testing.T) {
	const crs = 4 // a 5-packet request draws 4 explicit credit returns
	// burst enqueues the request, delivers n of its CRs as one RX burst
	// and returns the RTT samples and clock reads of that iteration.
	burst := func(opts Opts, n int) (samples []sim.Time, reads int) {
		clk := &countingClock{t: sim.Millisecond}
		tr := newQueueTransport()
		r := NewRpc(echoNexus(), Config{Transport: tr, Clock: clk, Opts: opts})
		r.RTTHook = func(rtt sim.Time) { samples = append(samples, rtt) }
		s, err := r.CreateSession(transport.Addr{Node: 2})
		if err != nil {
			t.Fatal(err)
		}
		// Enqueued from inside a pass, where the request's packets share
		// the loop clock as their TX timestamp.
		r.Post(func() {
			r.EnqueueRequest(s, echoType, r.Alloc((crs+1)*r.DataPerPkt()), r.Alloc(32), func(error) {})
		})
		r.RunEventLoopOnce()
		if tr.sent != crs+1 {
			t.Fatalf("sent %d request packets, want %d", tr.sent, crs+1)
		}
		for i := 0; i < n; i++ {
			tr.inject(fuzzFrame(wire.Header{PktType: wire.PktCR, DstSession: 0, PktNum: uint16(i),
				ReqNum: uint64(DefaultNumSlots)}, nil), transport.Addr{Node: 2})
		}
		before := clk.reads
		r.RunEventLoopOnce()
		if len(samples) != n {
			t.Fatalf("%d RTT samples from a burst of %d credit returns", len(samples), n)
		}
		return samples, clk.reads - before
	}

	batched, batchedReads := burst(Opts{}, crs)
	for _, rtt := range batched[1:] {
		if rtt != batched[0] {
			t.Fatalf("RTT samples of one RX burst differ: %v", batched)
		}
	}
	// The top of the pass and the return of RecvBurst, for a burst of
	// four as for a burst of one.
	_, one := burst(Opts{}, 1)
	if batchedReads != 2 || one != 2 {
		t.Fatalf("a pass with a burst of %d CRs read the clock %d times, with a burst of one %d times; want 2 and 2", crs, batchedReads, one)
	}
	perPkt, perPktReads := burst(Opts{DisableBatchedTimestamps: true}, crs)
	for i := 1; i < len(perPkt); i++ {
		if perPkt[i] == perPkt[i-1] {
			t.Fatalf("DisableBatchedTimestamps: samples %v share a clock read", perPkt)
		}
	}
	// Unbatched, every CR reads the clock for its RTT sample and for its
	// progress stamp (no packet is sent: the request's are all out).
	_, onePerPkt := burst(Opts{DisableBatchedTimestamps: true}, 1)
	if got := perPktReads - onePerPkt; got != 2*(crs-1) {
		t.Fatalf("DisableBatchedTimestamps: %d clock reads for a burst of %d CRs, %d for a burst of one; want %d apart", perPktReads, crs, onePerPkt, 2*(crs-1))
	}
}

// TestLoopClockReadsPerPass counts what a busy pass costs in clock
// reads: 16 responses arrive as one RX burst and every continuation
// issues the next request, so the pass stamps progress, takes RTT
// samples and TX timestamps for 16 RPCs ending and 16 starting — on the
// loop clock's two reads (the top of the pass, the return of RecvBurst).
// Opts.DisableBatchedTimestamps goes back to a read per call: four or
// more per RPC. A server's pass reads once more per TX flush that
// carries a reply to a kernel-stamped packet, to stamp the replies'
// endpoint delay, and no more where no reply answers a stamped packet:
// a client request waits in the TX batch and a burst of 64 stamped
// single-packet requests draws 64 responses, which leave in two flushes
// — the socket burst fills with the 63rd, the last goes at the end of
// the pass — and four reads.
func TestLoopClockReadsPerPass(t *testing.T) {
	const sessions = 2
	pass := func(opts Opts) (reads int) {
		clk := &countingClock{t: sim.Millisecond}
		tr := newQueueTransport()
		r := NewRpc(echoNexus(), Config{Transport: tr, Clock: clk, Opts: opts})
		n := sessions * DefaultNumSlots
		completed := 0
		for i := 0; i < sessions; i++ {
			s, err := r.CreateSession(transport.Addr{Node: 2})
			if err != nil {
				t.Fatal(err)
			}
			for k := 0; k < DefaultNumSlots; k++ {
				req, resp := r.Alloc(32), r.Alloc(32)
				var issue func()
				issue = func() {
					r.EnqueueRequest(s, echoType, req, resp, func(err error) {
						if err != nil {
							t.Error(err)
						}
						completed++
						if completed <= n {
							issue()
						}
					})
				}
				issue()
			}
		}
		r.RunEventLoopOnce()
		if tr.sent != n {
			t.Fatalf("sent %d requests, want %d", tr.sent, n)
		}
		for i := 0; i < sessions; i++ {
			for k := 0; k < DefaultNumSlots; k++ {
				tr.inject(fuzzFrame(wire.Header{PktType: wire.PktResp, ReqType: echoType, MsgSize: 32,
					DstSession: uint16(i), PktNum: 0, ReqNum: uint64(DefaultNumSlots + k)}, make([]byte, 32)), transport.Addr{Node: 2})
			}
		}
		before := clk.reads
		r.RunEventLoopOnce()
		if completed != n || tr.sent != 2*n {
			t.Fatalf("the pass completed %d RPCs and sent %d requests in all, want %d and %d", completed, tr.sent, n, 2*n)
		}
		return clk.reads - before
	}
	if got := pass(Opts{}); got > 3 {
		t.Fatalf("a pass that ends 16 RPCs and starts 16 read the clock %d times, want <= 3", got)
	}
	if got, want := pass(Opts{DisableBatchedTimestamps: true}), 4*sessions*DefaultNumSlots; got < want {
		t.Fatalf("DisableBatchedTimestamps: the same pass read the clock %d times, want >= %d (a read per call)", got, want)
	}

	const reqs = transport.SocketBurst
	serve := func(stamped bool) (reads, flushes int) {
		clk := &countingUnixClock{countingClock{t: sim.Second}}
		tr := newQueueTransport()
		r := NewRpc(echoNexus(), Config{Transport: tr, Clock: clk})
		s, err := r.CreateSession(transport.Addr{Node: 3})
		if err != nil {
			t.Fatal(err)
		}
		r.EnqueueRequest(s, echoType, r.Alloc(32), r.Alloc(32), func(error) {})
		for k := 0; k < reqs; k++ {
			var stamp int64
			if stamped {
				stamp = unixAt(clk.t)
			}
			tr.injectStamped(fuzzFrame(wire.Header{PktType: wire.PktReq, ReqType: echoType, MsgSize: 32,
				DstSession: uint16(k / DefaultNumSlots), ReqNum: uint64(DefaultNumSlots + k%DefaultNumSlots)},
				make([]byte, 32)), transport.Addr{Node: 2}, stamp)
		}
		before, bursts := clk.reads, r.Stats.TxBursts
		r.RunEventLoopOnce()
		if tr.sent != reqs+1 {
			t.Fatalf("sent %d packets, want %d", tr.sent, reqs+1)
		}
		return clk.reads - before, int(r.Stats.TxBursts - bursts)
	}
	if reads, flushes := serve(true); flushes != 2 || reads != 2+flushes {
		t.Fatalf("a server pass with stamped requests read the clock %d times in %d flushes, want 2 flushes and 4 reads", reads, flushes)
	}
	if reads, flushes := serve(false); flushes != 2 || reads != 2 {
		t.Fatalf("a server pass with unstamped requests read the clock %d times in %d flushes, want 2 flushes and 2 reads", reads, flushes)
	}
}

// TestEnqueueOutsideLoopSeesFreshClock: the loop clock is a pass's
// timestamp and must not outlive it. 20 ms after the last pass a request
// enqueued from outside the loop is stamped and paced at the time of the
// call: stamped with the last pass's time it would be four RTOs old at
// the next RTO scan, and its rate-limiter deadline 20 ms in the past.
func TestEnqueueOutsideLoopSeesFreshClock(t *testing.T) {
	clk := &manualClock{t: sim.Millisecond}
	tr := newQueueTransport()
	r := NewRpc(echoNexus(), pacedCfg(tr, clk, 10e6))
	s, err := r.CreateSession(transport.Addr{Node: 2})
	if err != nil {
		t.Fatal(err)
	}
	r.RunEventLoopOnce()
	clk.t += 20 * sim.Millisecond // no pass meanwhile
	r.EnqueueRequest(s, echoType, r.Alloc(32), r.Alloc(32), func(error) {})
	// The packet's time is the session's next credit of rate less the
	// packet's own charge. (The wheel cannot be asked: its head is 20 ms
	// stale, the entry is clamped and NextDeadline is its slot's start.)
	charge := sim.Time(float64(wire.HeaderSize+32) * 1e9 / s.cc.timely.Rate())
	if at := s.cc.nextTx - charge; r.wheel.Len() != 1 || at < clk.t {
		t.Fatalf("paced at %v (%d queued), want no earlier than the call at %v", at, r.wheel.Len(), clk.t)
	}
	for i := 0; i < 3; i++ { // the request leaves, an RTO scan runs
		clk.t += rtoScanInterval
		r.RunEventLoopOnce()
	}
	if tr.sent != 1 || r.Stats.Retransmits != 0 {
		t.Fatalf("sent %d packets, %d retransmits; want 1 and 0: the request was stamped before the call", tr.sent, r.Stats.Retransmits)
	}
}
