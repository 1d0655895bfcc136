package transport

import (
	"math/rand"
	"sync/atomic"

	"repro/internal/wire"
)

// Chaos wraps a Transport with a phase-scripted fault engine: a
// deterministic timeline of fault regimes — loss storms,
// blackhole/partition windows, straggler latency, duplication bursts —
// the adversity sweep the fault-tolerance layer (adaptive RTO, retry
// budgets, overload shedding) is measured against. A fixed seed plus a
// fixed script yields a reproducible fault sequence for a given packet
// order; one phase with Dur math.MaxInt64 gives constant fault rates.
//
// Phase selection is driven by a caller-supplied clock (nanoseconds
// from an arbitrary origin), so the same engine runs under the wall
// clock in real-transport mode and under simulated time in
// scheduler-driven tests. After the last scripted phase the wire is
// clean: packets pass untouched, which is what lets experiments measure
// recovery after the fault clears.
//
// Faults are injected on the send side; wrap both ends to subject both
// directions. A Chaos has the one owner of the transport it wraps:
// only the goroutine that calls RecvBurst calls SendBurst, so the fault
// state takes no lock. Delayed packets are released from whichever of
// the owner's calls observes their due time first (event loops poll
// RecvBurst constantly, bounding added release latency by the loop's
// idle park).
type Chaos struct {
	t      Transport
	now    func() int64 // caller-supplied clock, ns
	start  int64        // script origin: now() at construction
	phases []ChaosPhase

	// The owner's fault state: the lottery, the held packets and the
	// scratch burst that goes downstream.
	rng  *rand.Rand
	held []heldChaosPkt
	out  []Frame

	// Counters of injected faults, atomic: experiments read them while
	// dispatch goroutines still send.
	Drops      atomic.Uint64
	Dups       atomic.Uint64
	Reorders   atomic.Uint64
	Delayed    atomic.Uint64
	Blackholed atomic.Uint64
	Bursts     atomic.Uint64
}

// ChaosPhase is one timed segment of a fault script. Probabilities are
// in [0, 1) and applied independently per packet; at most one fault
// fires per packet (drop wins over dup over reorder).
type ChaosPhase struct {
	// Dur is the phase length in nanoseconds.
	Dur int64
	// Drop, Dup, Reorder are per-packet fault probabilities (loss
	// storms, duplication bursts, overtake reordering).
	Drop    float64
	Dup     float64
	Reorder float64
	// Blackhole drops every matching packet: a partition window.
	Blackhole bool
	// Delay adds a fixed latency (ns) to every matching packet: a
	// straggler. Delayed packets may be overtaken by later sends.
	Delay int64
	// DataOnly restricts this phase's faults to data/protocol packets,
	// letting session-management heartbeats (ping/pong) through — the
	// straggler that looks alive to the liveness plane while stalling
	// the data plane.
	DataOnly bool
}

type heldChaosPkt struct {
	dst   Addr
	frame []byte
	after int   // reorder: release once this many later sends passed
	due   int64 // delay: release once now() >= due (0 = overtake only)
}

// NewChaos wraps t with the scripted phases. now supplies the engine's
// clock in nanoseconds (monotonic; any origin); phases run back to back
// starting at construction time.
func NewChaos(t Transport, seed int64, now func() int64, phases []ChaosPhase) *Chaos {
	return &Chaos{
		t:      t,
		now:    now,
		start:  now(),
		phases: phases,
		rng:    rand.New(rand.NewSource(seed)),
	}
}

// Phase returns the index of the currently active scripted phase, or
// len(phases) once the script has run out (clean wire).
func (c *Chaos) Phase() int {
	elapsed := c.now() - c.start
	for i, p := range c.phases {
		if elapsed < p.Dur {
			return i
		}
		elapsed -= p.Dur
	}
	return len(c.phases)
}

// activePhase returns the current phase, or nil when the script is
// exhausted.
func (c *Chaos) activePhase() *ChaosPhase {
	if i := c.Phase(); i < len(c.phases) {
		return &c.phases[i]
	}
	return nil
}

// isHeartbeat reports whether the frame is a session-management
// ping/pong, which DataOnly phases let through. Reads the type bits in
// place (wire layout: magic byte, then pktType in the low bits of byte
// 1) — no full header decode on the fault path.
func isHeartbeat(frame []byte) bool {
	if len(frame) < 2 || frame[0] != wire.Magic {
		return false
	}
	t := wire.PktType(frame[1] & 0x7)
	return t == wire.PktPing || t == wire.PktPong
}

// fate decides one packet's outcome under the active phase. Returns
// 0 = deliver, 1 = drop, 2 = dup, 3 = held (reorder or delay; already
// appended to c.held).
func (c *Chaos) fate(dst Addr, frame []byte, now int64) int {
	p := c.activePhase()
	if p == nil {
		return 0
	}
	if p.DataOnly && isHeartbeat(frame) {
		return 0
	}
	if p.Blackhole {
		c.Blackholed.Add(1)
		return 1
	}
	if p.Delay > 0 {
		c.Delayed.Add(1)
		cp := make([]byte, len(frame))
		copy(cp, frame)
		c.held = append(c.held, heldChaosPkt{dst: dst, frame: cp, due: now + p.Delay})
		return 3
	}
	roll := c.rng.Float64()
	switch {
	case roll < p.Drop:
		c.Drops.Add(1)
		return 1
	case roll < p.Drop+p.Dup:
		c.Dups.Add(1)
		return 2
	case roll < p.Drop+p.Dup+p.Reorder:
		c.Reorders.Add(1)
		cp := make([]byte, len(frame))
		copy(cp, frame)
		c.held = append(c.held, heldChaosPkt{dst: dst, frame: cp, after: 1 + c.rng.Intn(3)})
		return 3
	}
	return 0
}

// dueHeld moves held packets whose release condition is met (enough
// later sends passed, or the delay expired) into out. passedSend marks
// that one more send overtook the held set.
func (c *Chaos) dueHeld(out []Frame, now int64, passedSend bool) []Frame {
	kept := c.held[:0]
	for i := range c.held {
		h := c.held[i]
		if passedSend && h.after > 0 {
			h.after--
		}
		release := false
		if h.due != 0 {
			release = now >= h.due
		} else {
			release = h.after <= 0
		}
		if release {
			out = append(out, Frame{Data: h.frame, Addr: h.dst})
		} else {
			kept = append(kept, h)
		}
	}
	c.held = kept
	return out
}

// MTU implements Transport.
func (c *Chaos) MTU() int { return c.t.MTU() }

// LocalAddr implements Transport.
func (c *Chaos) LocalAddr() Addr { return c.t.LocalAddr() }

// SendBurst implements Transport on the owner: every frame of the
// burst rolls the active phase's lottery independently; survivors,
// duplicates and released held packets go downstream as one burst.
func (c *Chaos) SendBurst(frames []Frame) {
	now := c.now()
	c.Bursts.Add(1)
	out := c.out[:0]
	for i := range frames {
		dst, data := frames[i].Addr, frames[i].Data
		if len(c.held) > 0 {
			out = c.dueHeld(out, now, true)
		}
		switch c.fate(dst, data, now) {
		case 0:
			out = append(out, Frame{Data: data, Addr: dst})
		case 2:
			out = append(out, Frame{Data: data, Addr: dst}, Frame{Data: data, Addr: dst})
		}
	}
	c.flush(out)
}

// flush sends out downstream and keeps it as the scratch burst, with
// no buffer references left in it.
func (c *Chaos) flush(out []Frame) {
	c.t.SendBurst(out)
	clear(out)
	c.out = out[:0]
}

// releaseDue forwards held packets whose delay expired. Called from
// the receive path too, so a straggler phase's packets are released
// even when the sender goes quiet (event loops poll RecvBurst).
func (c *Chaos) releaseDue() {
	if len(c.held) == 0 {
		return
	}
	if out := c.dueHeld(c.out[:0], c.now(), false); len(out) > 0 {
		c.flush(out)
	}
}

// RecvBurst implements Transport.
func (c *Chaos) RecvBurst(frames []Frame) int {
	c.releaseDue()
	return c.t.RecvBurst(frames)
}

// SetWake implements Transport.
func (c *Chaos) SetWake(fn func()) { c.t.SetWake(fn) }

// waiter forwards the wrapped transport's Waiter, if it has one (see
// WaiterOf): an owner sleeping in it still receives through RecvBurst
// here, so held packets keep being released.
func (c *Chaos) waiter() Waiter { return WaiterOf(c.t) }

// Close implements Transport. Held packets are never sent — the
// network lost them.
func (c *Chaos) Close() error { return c.t.Close() }

var _ Transport = (*Chaos)(nil)
