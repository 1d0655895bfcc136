package simnet

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/transport"
)

func newFabric(t *testing.T, cfg Config) (*sim.Scheduler, *Fabric) {
	t.Helper()
	s := sim.NewScheduler(1)
	f, err := New(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, f
}

// send1 and recv1 move single frames as bursts of one. recv1 does not
// release the frame, so the payload stays valid for the test.
func send1(e *Endpoint, dst transport.Addr, frame []byte) {
	e.SendBurst([]transport.Frame{{Data: frame, Addr: dst}})
}

func recv1(e *Endpoint) ([]byte, transport.Addr, bool) {
	var f [1]transport.Frame
	if e.RecvBurst(f[:]) == 0 {
		return nil, transport.Addr{}, false
	}
	return f[0].Data, f[0].Addr, true
}

func cx4Single(n int) Config {
	return Config{Profile: CX4(), Topology: SingleSwitch(n)}
}

func TestDeliverySameToR(t *testing.T) {
	s, f := newFabric(t, cx4Single(2))
	a := f.AttachEndpoint(0)
	b := f.AttachEndpoint(1)
	var gotAt sim.Time
	var gotFrom transport.Addr
	b.SetWake(func() {
		buf, from, ok := recv1(b)
		if !ok {
			t.Fatal("wake without packet")
		}
		gotAt = s.Now()
		gotFrom = from
		if string(buf) != "ping" {
			t.Fatalf("payload %q", buf)
		}
	})
	send1(a, b.LocalAddr(), []byte("ping"))
	s.Run()
	if gotAt == 0 {
		t.Fatal("packet not delivered")
	}
	if gotFrom != a.LocalAddr() {
		t.Fatalf("from = %v", gotFrom)
	}
	// One-way latency sanity: NICTx(350) + ser + prop(100) + swLat(300)
	// + ser + prop(100) + NICRx(350) ≈ 1.2-1.3 µs for a tiny frame.
	if gotAt < 1000 || gotAt > 2000 {
		t.Fatalf("one-way latency = %v, want ~1.2µs", gotAt)
	}
}

func TestDeliveryCrossToR(t *testing.T) {
	cfg := Config{Profile: CX4(), Topology: Topology{NumToRs: 2, NodesPerToR: 2, NumSpines: 1}}
	s, f := newFabric(t, cfg)
	a := f.AttachEndpoint(0) // ToR 0
	b := f.AttachEndpoint(3) // ToR 1
	var sameToRAt, crossToRAt sim.Time
	c := f.AttachEndpoint(1) // same ToR as a
	c.SetWake(func() { recv1(c); sameToRAt = s.Now() })
	b.SetWake(func() { recv1(b); crossToRAt = s.Now() })
	send1(a, c.LocalAddr(), []byte("near"))
	send1(a, b.LocalAddr(), []byte("far"))
	s.Run()
	if sameToRAt == 0 || crossToRAt == 0 {
		t.Fatal("a delivery is missing")
	}
	if crossToRAt <= sameToRAt {
		t.Fatalf("cross-ToR (%v) should be slower than same-ToR (%v)", crossToRAt, sameToRAt)
	}
}

func TestLoopbackSameNode(t *testing.T) {
	s, f := newFabric(t, cx4Single(1))
	a := f.AttachEndpoint(0)
	b := f.AttachEndpoint(0) // second endpoint, same node
	got := false
	b.SetWake(func() { recv1(b); got = true })
	send1(a, b.LocalAddr(), []byte("self"))
	s.Run()
	if !got {
		t.Fatal("loopback delivery failed")
	}
}

func TestSerializationOrdersBackToBack(t *testing.T) {
	// Two packets sent back-to-back must arrive separated by at least
	// the serialization time of the first.
	s, f := newFabric(t, cx4Single(2))
	a := f.AttachEndpoint(0)
	b := f.AttachEndpoint(1)
	var arrivals []sim.Time
	b.SetWake(func() {
		for {
			if _, _, ok := recv1(b); !ok {
				break
			}
			arrivals = append(arrivals, s.Now())
		}
	})
	frame := make([]byte, 1024)
	send1(a, b.LocalAddr(), frame)
	send1(a, b.LocalAddr(), frame)
	s.Run()
	// Wake fires only on empty→nonempty; drain remaining manually.
	for {
		if _, _, ok := recv1(b); !ok {
			break
		}
		arrivals = append(arrivals, s.Now())
	}
	if len(arrivals) != 2 {
		t.Fatalf("arrivals = %v", arrivals)
	}
	serNs := ser(1024+44, 25)
	if d := arrivals[1] - arrivals[0]; d < serNs {
		t.Fatalf("spacing %v < serialization %v", d, serNs)
	}
}

func TestInOrderDeliveryWithinFlow(t *testing.T) {
	s, f := newFabric(t, cx4Single(2))
	a := f.AttachEndpoint(0)
	b := f.AttachEndpoint(1)
	for i := 0; i < 50; i++ {
		send1(a, b.LocalAddr(), []byte{byte(i)})
	}
	s.Run()
	for i := 0; i < 50; i++ {
		buf, _, ok := recv1(b)
		if !ok {
			t.Fatalf("missing packet %d", i)
		}
		if buf[0] != byte(i) {
			t.Fatalf("reordered: got %d at position %d", buf[0], i)
		}
	}
}

func TestLossInjection(t *testing.T) {
	cfg := cx4Single(2)
	cfg.LossRate = 0.5
	s, f := newFabric(t, cfg)
	a := f.AttachEndpoint(0)
	b := f.AttachEndpoint(1)
	const n = 2000
	for i := 0; i < n; i++ {
		send1(a, b.LocalAddr(), []byte{1})
	}
	s.Run()
	got := 0
	for {
		if _, _, ok := recv1(b); !ok {
			break
		}
		got++
	}
	if got < n/3 || got > 2*n/3 {
		t.Fatalf("got %d of %d with 50%% loss", got, n)
	}
	if f.Stats.DroppedLoss != uint64(n-got) {
		t.Fatalf("loss accounting: dropped=%d delivered=%d", f.Stats.DroppedLoss, got)
	}
}

func TestRQOverflowDrops(t *testing.T) {
	cfg := cx4Single(2)
	cfg.RQCap = 4
	s, f := newFabric(t, cfg)
	a := f.AttachEndpoint(0)
	b := f.AttachEndpoint(1)
	for i := 0; i < 10; i++ {
		send1(a, b.LocalAddr(), []byte{1})
	}
	s.Run()
	if b.Pending() != 4 {
		t.Fatalf("pending = %d, want RQCap=4", b.Pending())
	}
	if f.Stats.DroppedRQ != 6 {
		t.Fatalf("rq drops = %d, want 6", f.Stats.DroppedRQ)
	}
}

func TestSwitchBufferOverflowDropsLossy(t *testing.T) {
	// Tiny switch buffer: a burst into one port must overflow.
	cfg := cx4Single(3)
	cfg.Profile.SwitchBufBytes = 8 * 1024
	cfg.Profile.DTAlpha = 1
	s, f := newFabric(t, cfg)
	a := f.AttachEndpoint(0)
	c := f.AttachEndpoint(1)
	dst := f.AttachEndpoint(2)
	frame := make([]byte, 1024)
	for i := 0; i < 100; i++ {
		send1(a, dst.LocalAddr(), frame)
		send1(c, dst.LocalAddr(), frame)
	}
	s.Run()
	if f.Stats.DroppedBuffer == 0 {
		t.Fatal("expected switch buffer drops")
	}
	if dst.Pending() == 0 {
		t.Fatal("some packets should still be delivered")
	}
}

func TestLosslessProfileNeverDropsAtSwitch(t *testing.T) {
	cfg := Config{Profile: CX3(), Topology: SingleSwitch(3)}
	cfg.Profile.SwitchBufBytes = 1024 // tiny, but lossless ignores it
	s, f := newFabric(t, cfg)
	a := f.AttachEndpoint(0)
	c := f.AttachEndpoint(1)
	dst := f.AttachEndpoint(2)
	frame := make([]byte, 4096)
	for i := 0; i < 200; i++ {
		send1(a, dst.LocalAddr(), frame)
		send1(c, dst.LocalAddr(), frame)
	}
	s.Run()
	if f.Stats.DroppedBuffer != 0 {
		t.Fatalf("lossless fabric dropped %d at switch", f.Stats.DroppedBuffer)
	}
	if dst.Pending() != 400 {
		t.Fatalf("pending = %d, want 400", dst.Pending())
	}
}

func TestOversizeFrameDropped(t *testing.T) {
	s, f := newFabric(t, cx4Single(2))
	a := f.AttachEndpoint(0)
	b := f.AttachEndpoint(1)
	send1(a, b.LocalAddr(), make([]byte, f.Profile().MTU+1))
	s.Run()
	if b.Pending() != 0 {
		t.Fatal("oversize frame delivered")
	}
}

func TestIncastQueueing(t *testing.T) {
	// 10 senders blast one receiver; per-packet latency of later
	// packets must reflect queueing at the victim's switch port.
	s, f := newFabric(t, cx4Single(11))
	dst := f.AttachEndpoint(10)
	var first, last sim.Time
	count := 0
	drain := func() {
		for {
			if _, _, ok := recv1(dst); !ok {
				break
			}
			if first == 0 {
				first = s.Now()
			}
			last = s.Now()
			count++
		}
	}
	dst.SetWake(drain)
	frame := make([]byte, 1024)
	for n := 0; n < 10; n++ {
		ep := f.AttachEndpoint(n)
		for i := 0; i < 20; i++ {
			send1(ep, dst.LocalAddr(), frame)
		}
	}
	// Keep draining as packets arrive.
	for s.Step() {
		drain()
	}
	if count != 200 {
		t.Fatalf("delivered %d, want 200", count)
	}
	// 200 KB through a 25 Gbps port ≈ 68 µs of serialization.
	if spread := last - first; spread < 50*sim.Microsecond {
		t.Fatalf("incast spread = %v, want ≥ 50µs of queueing", spread)
	}
}

func TestBandwidthMatchesLineRate(t *testing.T) {
	// A long back-to-back stream should take ≈ bytes*8/rate.
	s, f := newFabric(t, cx4Single(2))
	a := f.AttachEndpoint(0)
	b := f.AttachEndpoint(1)
	const pkts = 1000
	frame := make([]byte, 1024)
	for i := 0; i < pkts; i++ {
		send1(a, b.LocalAddr(), frame)
	}
	var last sim.Time
	for s.Step() {
		for {
			if _, _, ok := recv1(b); !ok {
				break
			}
			last = s.Now()
		}
	}
	wireBits := float64(pkts*(1024+44)) * 8
	ideal := sim.Time(wireBits / 25)
	if last < ideal || last > ideal+ideal/5 {
		t.Fatalf("stream finished at %v, ideal %v", last, ideal)
	}
}

func TestTopologyValidation(t *testing.T) {
	s := sim.NewScheduler(1)
	if _, err := New(s, Config{Profile: CX4(), Topology: Topology{NumToRs: 2, NodesPerToR: 2}}); err == nil {
		t.Fatal("multi-ToR without spines should be rejected")
	}
	if _, err := New(s, Config{Profile: Profile{}, Topology: SingleSwitch(1)}); err == nil {
		t.Fatal("empty profile should be rejected")
	}
}

func TestProfilesValid(t *testing.T) {
	for _, p := range []Profile{CX3(), CX4(), CX5(), CX5IB100()} {
		if err := p.validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
		if p.DataPerPkt() <= 0 {
			t.Errorf("%s: bad DataPerPkt", p.Name)
		}
	}
	// Paper §2.1: CX4 BDP at 6 µs RTT is ~19 kB.
	bdp := CX4().BDP(6 * sim.Microsecond)
	if bdp < 17000 || bdp > 20000 {
		t.Errorf("CX4 BDP = %d, want ≈ 18750", bdp)
	}
}

func TestECMPSpreadsFlows(t *testing.T) {
	cfg := Config{Profile: CX4(), Topology: Topology{NumToRs: 2, NodesPerToR: 4, NumSpines: 4}}
	_, f := newFabric(t, cfg)
	hits := map[int]int{}
	for p := 0; p < 64; p++ {
		h := transport.FlowHash(transport.Addr{Node: 0, Port: uint16(p)}, transport.Addr{Node: 4, Port: 0})
		hits[int(h)%cfg.Topology.NumSpines]++
	}
	used := 0
	for _, n := range hits {
		if n > 0 {
			used++
		}
	}
	if used < 3 {
		t.Fatalf("ECMP used only %d of 4 spines", used)
	}
	_ = f
}

func TestCloseDiscardsTraffic(t *testing.T) {
	s, f := newFabric(t, cx4Single(2))
	a := f.AttachEndpoint(0)
	b := f.AttachEndpoint(1)
	b.Close()
	send1(a, b.LocalAddr(), []byte("x"))
	s.Run()
	if _, _, ok := recv1(b); ok {
		t.Fatal("closed endpoint received a frame")
	}
}

func TestJitterPreservesIntraFlowOrder(t *testing.T) {
	cfg := cx4Single(3)
	cfg.Jitter = 50 * sim.Microsecond // enormous jitter
	s, f := newFabric(t, cfg)
	a := f.AttachEndpoint(0)
	c := f.AttachEndpoint(1)
	dst := f.AttachEndpoint(2)
	// Interleave two flows; each flow's packets must arrive in order
	// despite per-packet jitter (ECMP preserves intra-flow ordering,
	// paper §5.3).
	for i := 0; i < 100; i++ {
		send1(a, dst.LocalAddr(), []byte{0, byte(i)})
		send1(c, dst.LocalAddr(), []byte{1, byte(i)})
	}
	s.Run()
	last := map[byte]int{0: -1, 1: -1}
	n := 0
	for {
		buf, _, ok := recv1(dst)
		if !ok {
			break
		}
		flow, seq := buf[0], int(buf[1])
		if seq <= last[flow] {
			t.Fatalf("flow %d reordered: %d after %d", flow, seq, last[flow])
		}
		last[flow] = seq
		n++
	}
	if n != 200 {
		t.Fatalf("delivered %d of 200", n)
	}
}

func TestJitterSpreadsArrivals(t *testing.T) {
	run := func(jitter sim.Time) []sim.Time {
		cfg := cx4Single(2)
		cfg.Jitter = jitter
		s, f := newFabric(t, cfg)
		a := f.AttachEndpoint(0)
		b := f.AttachEndpoint(1)
		var at []sim.Time
		b.SetWake(func() {})
		for i := 0; i < 20; i++ {
			av := a
			_ = av
			s.At(sim.Time(i)*50*sim.Microsecond, func() { send1(a, b.LocalAddr(), []byte{1}) })
		}
		for s.Step() {
			for {
				if _, _, ok := recv1(b); !ok {
					break
				}
				at = append(at, s.Now())
			}
		}
		return at
	}
	base := run(0)
	jit := run(10 * sim.Microsecond)
	if len(base) != 20 || len(jit) != 20 {
		t.Fatalf("deliveries: %d / %d", len(base), len(jit))
	}
	diff := false
	for i := range base {
		if jit[i] != base[i] {
			diff = true
		}
		if jit[i] < base[i] {
			t.Fatalf("jitter made packet %d arrive earlier", i)
		}
	}
	if !diff {
		t.Fatal("jitter had no effect")
	}
}

// TestRecvBurstLendsUntilNextRecv pins the RX lease: a frame's bytes
// stay intact while the endpoint receives nothing, however much traffic
// the fabric carries meanwhile, and its buffer carries a new packet
// only after the endpoint's next RecvBurst has re-posted it.
func TestRecvBurstLendsUntilNextRecv(t *testing.T) {
	s, f := newFabric(t, cx4Single(2))
	a := f.AttachEndpoint(0)
	b := f.AttachEndpoint(1)
	send1(a, b.LocalAddr(), []byte("first"))
	s.Run()
	var burst [1]transport.Frame
	if b.RecvBurst(burst[:]) != 1 {
		t.Fatal("first packet not delivered")
	}
	first := burst[0].Data

	send1(a, b.LocalAddr(), []byte("second"))
	send1(b, a.LocalAddr(), []byte("other"))
	s.Run()
	if string(first) != "first" {
		t.Fatalf("lent frame reads %q before the next RecvBurst, want %q", first, "first")
	}

	if b.RecvBurst(burst[:]) != 1 || string(burst[0].Data) != "second" {
		t.Fatalf("second RecvBurst = %q, want %q", burst[0].Data, "second")
	}
	send1(a, b.LocalAddr(), []byte("third"))
	s.Run()
	if string(first) != "third" {
		t.Fatalf("the first frame's buffer reads %q after the next RecvBurst and a send, want it reused for %q", first, "third")
	}
}

// TestSteadyStateAllocFree: once warm, a packet exchange — bursts
// sent, carried through the fabric and received — allocates nothing.
func TestSteadyStateAllocFree(t *testing.T) {
	cfg := Config{Profile: CX4(), Topology: Topology{NumToRs: 2, NodesPerToR: 2, NumSpines: 2}}
	s, f := newFabric(t, cfg)
	a := f.AttachEndpoint(0)
	b := f.AttachEndpoint(2) // across the spine
	const burst = 16
	tx := make([]transport.Frame, burst)
	for i := range tx {
		tx[i] = transport.Frame{Data: make([]byte, 64+i), Addr: b.LocalAddr()}
	}
	rx := make([]transport.Frame, burst)
	got := 0
	exchange := func() {
		a.SendBurst(tx)
		s.Run()
		got = b.RecvBurst(rx)
	}
	exchange()
	if got != burst {
		t.Fatalf("received %d of %d frames", got, burst)
	}
	if avg := testing.AllocsPerRun(100, exchange); avg != 0 {
		t.Fatalf("%.1f allocs per exchange of %d packets, want 0", avg, burst)
	}
	if got != burst {
		t.Fatalf("received %d of %d frames", got, burst)
	}
}
