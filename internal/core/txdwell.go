package core

import "repro/internal/sim"

// passLogLen is how many passes back txDwell can see. A sample arrives
// a round trip after its packet left, a handful to a few dozen passes on
// a busy loop (a pass with nothing to do parks instead of logging one);
// an older packet gets no TX dwell subtracted, which only makes Timely
// more cautious.
const passLogLen = 256

// passLog is a ring of the loop's most recent top-of-pass clock reads,
// ascending, each marked with whether it followed the previous pass's
// TX flush at once: the loop goroutine ran the pass straight after one
// that did work, with no park between. (A pass that sent packets did
// work.) Such a read bounds from above when that flush's packets left
// this host, at no cost of its own.
type passLog struct {
	at         [passLogLen]sim.Time
	backToBack [passLogLen]bool
	head       int // index of the newest entry
}

func (l *passLog) record(t sim.Time, backToBack bool) {
	l.head = (l.head + 1) % passLogLen
	l.at[l.head], l.backToBack[l.head] = t, backToBack
}

// flushEnd returns the top-of-pass read that followed the flush of the
// pass that stamped a packet tx, or 0 when it is unknown: the pass after
// it had a park in between, or is older than the log, or has not begun.
// Packets are stamped with one of their pass's clock reads, so the first
// logged top read later than tx begins the next pass. A sample comes a
// handful of passes after its packet left, so the walk starts from the
// newest entry. A loop that logs no pass (simulated time, a Clock that
// is not a sim.UnixClock) leaves the newest entry 0, which no stamp
// precedes.
func (l *passLog) flushEnd(tx sim.Time) sim.Time {
	if l.at[l.head] <= tx || l.at[(l.head+1)%passLogLen] > tx {
		return 0 // not ended yet, or begun before the oldest entry
	}
	// Walk back to the oldest entry later than tx; the log's oldest entry
	// is not, so the walk stops inside the ring.
	i := l.head
	for {
		j := (i + passLogLen - 1) % passLogLen
		if l.at[j] <= tx {
			break
		}
		i = j
	}
	if !l.backToBack[i] {
		return 0
	}
	return l.at[i]
}

// txDwell is how long a client packet stamped tx stayed in this host
// before the flush that carried it ended: the rest of its pass, which
// handles a whole RX burst, and the send itself, both of which a busy
// host's scheduler can stretch. No receive stamp sees it. It
// is 0 where the loop's passes are not logged: hand-driven loops, whose
// next pass may come any time later, simulated time and clocks that are
// not sim.UnixClock, so every simulated experiment is unchanged.
func (r *Rpc) txDwell(tx sim.Time) sim.Time {
	if end := r.passes.flushEnd(tx); end != 0 {
		return end - tx
	}
	return 0
}
