package transport

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/wire"
)

// sinkTransport records everything sent through it.
type sinkTransport struct {
	sent   []Frame
	bursts int
}

func (s *sinkTransport) MTU() int        { return 1024 }
func (s *sinkTransport) LocalAddr() Addr { return Addr{Node: 1} }
func (s *sinkTransport) SendBurst(frames []Frame) {
	s.bursts++
	for i := range frames {
		cp := append([]byte(nil), frames[i].Data...)
		s.sent = append(s.sent, Frame{Data: cp, Addr: frames[i].Addr})
	}
}
func (s *sinkTransport) RecvBurst(frames []Frame) int { return 0 }
func (s *sinkTransport) SetWake(fn func())            {}
func (s *sinkTransport) Close() error                 { return nil }

func mkFrame(t *testing.T, pt wire.PktType) []byte {
	t.Helper()
	buf := make([]byte, wire.HeaderSize)
	h := wire.Header{PktType: pt}
	if err := h.Encode(buf); err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestChaosPhaseScript drives a three-phase script (blackhole, clean
// tail after exhaustion) with a manual clock and checks phase selection
// and the partition window.
func TestChaosPhaseScript(t *testing.T) {
	var now int64
	sink := &sinkTransport{}
	c := NewChaos(sink, 1, func() int64 { return now }, []ChaosPhase{
		{Dur: 100, Blackhole: true},
		{Dur: 100, Drop: 0}, // clean scripted phase
	})
	dst := Addr{Node: 2}
	data := mkFrame(t, wire.PktReq)

	if c.Phase() != 0 {
		t.Fatalf("phase = %d, want 0", c.Phase())
	}
	send1(c, dst, data)
	if len(sink.sent) != 0 {
		t.Fatal("blackhole phase leaked a packet")
	}
	if c.Blackholed.Load() != 1 {
		t.Fatalf("Blackholed = %d, want 1", c.Blackholed.Load())
	}

	now = 150 // phase 1: clean
	if c.Phase() != 1 {
		t.Fatalf("phase = %d, want 1", c.Phase())
	}
	send1(c, dst, data)
	if len(sink.sent) != 1 {
		t.Fatalf("clean phase delivered %d packets, want 1", len(sink.sent))
	}

	now = 500 // script exhausted: clean wire
	if c.Phase() != 2 {
		t.Fatalf("phase = %d, want 2 (exhausted)", c.Phase())
	}
	send1(c, dst, data)
	if len(sink.sent) != 2 {
		t.Fatal("post-script wire not clean")
	}
}

// TestChaosDataOnlyPassesHeartbeats checks the straggler mode: a
// DataOnly blackhole kills data packets but lets ping/pong through, so
// the liveness plane stays green while the data plane stalls.
func TestChaosDataOnlyPassesHeartbeats(t *testing.T) {
	var now int64
	sink := &sinkTransport{}
	c := NewChaos(sink, 1, func() int64 { return now }, []ChaosPhase{
		{Dur: 1000, Blackhole: true, DataOnly: true},
	})
	dst := Addr{Node: 2}

	send1(c, dst, mkFrame(t, wire.PktReq))
	send1(c, dst, mkFrame(t, wire.PktResp))
	send1(c, dst, mkFrame(t, wire.PktCR))
	if len(sink.sent) != 0 {
		t.Fatal("DataOnly blackhole leaked data/protocol packets")
	}
	send1(c, dst, mkFrame(t, wire.PktPing))
	send1(c, dst, mkFrame(t, wire.PktPong))
	if len(sink.sent) != 2 {
		t.Fatalf("heartbeats blocked: %d of 2 delivered", len(sink.sent))
	}
	if c.Blackholed.Load() != 3 {
		t.Fatalf("Blackholed = %d, want 3", c.Blackholed.Load())
	}
}

// TestChaosDelayReleases checks straggler latency: delayed packets are
// held until the clock passes their due time, then released by the
// next transport activity (here a RecvBurst poll, like an event loop).
func TestChaosDelayReleases(t *testing.T) {
	var now int64
	sink := &sinkTransport{}
	c := NewChaos(sink, 1, func() int64 { return now }, []ChaosPhase{
		{Dur: 1000, Delay: 100},
	})
	dst := Addr{Node: 2}
	send1(c, dst, mkFrame(t, wire.PktReq))
	if len(sink.sent) != 0 {
		t.Fatal("delayed packet delivered immediately")
	}
	if c.Delayed.Load() != 1 {
		t.Fatalf("Delayed = %d, want 1", c.Delayed.Load())
	}

	now = 50
	var scratch [4]Frame
	c.RecvBurst(scratch[:])
	if len(sink.sent) != 0 {
		t.Fatal("packet released before its due time")
	}
	now = 150
	c.RecvBurst(scratch[:])
	if len(sink.sent) != 1 {
		t.Fatalf("due packet not released: %d sent", len(sink.sent))
	}
}

// TestChaosBurstFaults runs a loss-storm phase over SendBurst and
// checks determinism: same seed + same script + same packet order =
// same fault sequence.
func TestChaosBurstFaults(t *testing.T) {
	run := func() (delivered int, drops, dups uint64) {
		var now int64
		sink := &sinkTransport{}
		c := NewChaos(sink, 42, func() int64 { return now }, []ChaosPhase{
			{Dur: 1 << 40, Drop: 0.3, Dup: 0.2},
		})
		data := mkFrame(t, wire.PktReq)
		burst := make([]Frame, 8)
		for i := range burst {
			burst[i] = Frame{Data: data, Addr: Addr{Node: 2}}
		}
		for k := 0; k < 20; k++ {
			c.SendBurst(burst)
		}
		return len(sink.sent), c.Drops.Load(), c.Dups.Load()
	}
	d1, drops1, dups1 := run()
	d2, drops2, dups2 := run()
	if d1 != d2 || drops1 != drops2 || dups1 != dups2 {
		t.Fatalf("chaos not deterministic: (%d,%d,%d) vs (%d,%d,%d)",
			d1, drops1, dups1, d2, drops2, dups2)
	}
	if drops1 == 0 || dups1 == 0 {
		t.Fatalf("fault lottery idle: drops=%d dups=%d", drops1, dups1)
	}
	// 160 packets at 30% drop / 20% dup: delivered = 160 - drops + dups.
	if d1 != 160-int(drops1)+int(dups1) {
		t.Fatalf("delivered %d, want %d", d1, 160-int(drops1)+int(dups1))
	}
}

// TestChaosReorderOvertake checks reordering: a held
// packet is released after enough later sends overtake it.
func TestChaosReorderOvertake(t *testing.T) {
	var now int64
	sink := &sinkTransport{}
	c := NewChaos(sink, 7, func() int64 { return now }, []ChaosPhase{
		{Dur: 1 << 40, Reorder: 1.0},
	})
	dst := Addr{Node: 2}
	// Every send is held; each later send decrements the hold counts,
	// so after enough sends the early packets must have been released.
	for i := 0; i < 16; i++ {
		send1(c, dst, mkFrame(t, wire.PktReq))
	}
	if c.Reorders.Load() != 16 {
		t.Fatalf("Reorders = %d, want 16", c.Reorders.Load())
	}
	if len(sink.sent) == 0 {
		t.Fatal("no held packet was ever released by overtaking sends")
	}
}

// constantFaults is the script of a wrapper with fixed fault rates: one
// phase that never ends.
func constantFaults(drop, dup, reorder float64) []ChaosPhase {
	return []ChaosPhase{{Dur: math.MaxInt64, Drop: drop, Dup: dup, Reorder: reorder}}
}

// TestChaosConstantPhaseBurst pushes bursts through one unbounded phase
// at high fault rates and checks frame conservation: every frame of a
// burst rolls the lottery on its own, SendBurst calls are counted, and
// delivered = sent - drops + dups - still-held, with reordered (held)
// frames eventually released by later traffic and none corrupted.
func TestChaosConstantPhaseBurst(t *testing.T) {
	sink := &sinkTransport{}
	c := NewChaos(sink, 7, func() int64 { return 0 }, constantFaults(0.2, 0.2, 0.2))
	payload := []byte("abcdefgh")
	const bursts = 200
	const perBurst = 8
	for i := 0; i < bursts; i++ {
		var fr []Frame
		for j := 0; j < perBurst; j++ {
			fr = append(fr, Frame{Data: payload, Addr: Addr{1, 0}})
		}
		c.SendBurst(fr)
	}
	if c.Bursts.Load() != bursts || sink.bursts != bursts {
		t.Fatalf("Bursts = %d, downstream bursts = %d, want %d each", c.Bursts.Load(), sink.bursts, bursts)
	}
	if c.Drops.Load() == 0 || c.Dups.Load() == 0 || c.Reorders.Load() == 0 {
		t.Fatalf("fault injector idle: drops=%d dups=%d reorders=%d", c.Drops.Load(), c.Dups.Load(), c.Reorders.Load())
	}
	sent := uint64(bursts * perBurst)
	held := uint64(len(c.held))
	want := sent - c.Drops.Load() + c.Dups.Load() - held
	if got := uint64(len(sink.sent)); got != want {
		t.Fatalf("downstream saw %d frames, want %d (sent %d, drops %d, dups %d, held %d)",
			got, want, sent, c.Drops.Load(), c.Dups.Load(), held)
	}
	for _, f := range sink.sent {
		if !bytes.Equal(f.Data, payload) {
			t.Fatalf("corrupted frame %q", f.Data)
		}
	}
}
