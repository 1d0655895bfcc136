package core

import (
	"repro/internal/sim"
	"repro/internal/transport"
)

// simDriver runs an endpoint in simulated time: the loop is one
// simulated CPU, scheduler events run its passes and every operation
// charges that CPU the CostModel's time. Rpc.cpu points here so that
// now, charge and chargeBytes reach the cursor without an interface call.
type simDriver struct {
	r     *Rpc
	sched *sim.Scheduler
	scale float64 // Config.CPUScale: cluster CPU speed

	cursor       sim.Time // the CPU's clock: advances as work is charged
	passStart    sim.Time // cursor at the top of the current pass (txStamp)
	inPass       bool     // a pass is running: passStart is current
	busyUntil    sim.Time // the CPU is committed until then
	runScheduled bool
	wakeAt       sim.Time
	wakeEv       sim.EventID
	wakeArmed    bool

	txDep  []sim.Time // departure time of each frame of r.txBatch
	txFree []*simTx   // recycled simulated-send descriptors
	txFn   func(any)  // predeclared AtCall callback for simulated sends
}

// simTx is a pooled descriptor for one simulated send: the frame, a
// copy of the bytes the TX batch held, leaves at its recorded departure
// time (CPU cursor at TX plus the non-CPU send pipeline) regardless of
// when the batch is flushed.
type simTx struct {
	f [1]transport.Frame // a burst of one
}

func newSimDriver(r *Rpc, sched *sim.Scheduler) *simDriver {
	d := &simDriver{r: r, sched: sched, scale: r.cfg.CPUScale, txDep: make([]sim.Time, 0, r.burst)}
	d.txFn = func(a any) {
		t := a.(*simTx)
		r.tr.SendBurst(t.f[:])
		d.txFree = append(d.txFree, t)
	}
	return d
}

// apiEnter synchronizes the simulated CPU cursor when a public API
// method is invoked from outside the event loop (e.g. application code
// scheduled directly on the simulator). Safe to call re-entrantly from
// continuations: the cursor never moves backwards.
func (r *Rpc) apiEnter() {
	if d := r.cpu; d != nil {
		d.cursor = max(d.cursor, d.busyUntil, d.sched.Now())
	}
}

// apiExit commits charged time after a public API call, flushes any
// packets the call produced (an API call from outside the event loop
// is its own TX batch) and arms the timer wake-ups the call may need
// (rate limiter, RTO).
func (r *Rpc) apiExit() {
	if d := r.cpu; d != nil {
		r.flushTX()
		d.busyUntil = max(d.busyUntil, d.cursor)
		d.armWake()
	}
}

// txQueued records when the frame appendTX just queued leaves: when the
// CPU reaches this point in its work (cursor) plus the non-CPU send
// pipeline (doorbell, DMA fetch) — recorded now, applied by transmit.
func (r *Rpc) txQueued() {
	if d := r.cpu; d != nil {
		d.txDep = append(d.txDep, d.cursor+r.cfg.TxPipeline)
	}
}

// wake arranges for the event loop to run as soon as the simulated CPU
// is free.
func (d *simDriver) wake() {
	if d.runScheduled {
		return
	}
	d.runScheduled = true
	d.sched.At(max(d.sched.Now(), d.busyUntil), d.runSim)
}

func (d *simDriver) runSim() {
	d.runScheduled = false
	now := d.sched.Now()
	if now < d.busyUntil {
		// The CPU is still busy with earlier work; try again when free.
		d.wake()
		return
	}
	d.cursor = now
	d.r.runOnce()
	d.busyUntil = d.cursor
	if d.r.rxFull {
		// The RX burst filled: more packets may be queued beyond this
		// iteration's budget of one burst. Run again once the CPU is
		// free (packet arrivals only wake an *empty* queue).
		d.wake()
	}
	d.armWake()
}

// armWake schedules the next timer-driven loop run (rate limiter
// deadline, RTO scan, heartbeats). Packet arrivals wake the loop
// independently.
func (d *simDriver) armWake() {
	r := d.r
	next := sim.Time(-1)
	if dl, ok := r.wheel.NextDeadline(); ok {
		next = dl
	}
	if r.anyBusySlot() {
		t := d.cursor + rtoScanInterval
		if next < 0 || t < next {
			next = t
		}
	}
	if r.cfg.HeartbeatInterval > 0 {
		t := r.lastHB + r.cfg.HeartbeatInterval
		if next < 0 || t < next {
			next = t
		}
	}
	if next < 0 {
		return
	}
	if next < d.busyUntil {
		next = d.busyUntil
	}
	if d.wakeArmed && d.wakeAt <= next {
		return
	}
	if d.wakeArmed {
		d.sched.Cancel(d.wakeEv)
	}
	d.wakeArmed = true
	d.wakeAt = next
	d.wakeEv = d.sched.At(next, func() {
		d.wakeArmed = false
		d.wake()
	})
}

func (r *Rpc) anyBusySlot() bool {
	for _, s := range r.sessions {
		for i := range s.slots {
			if s.slots[i].busy {
				return true
			}
		}
	}
	return false
}

// transmit schedules each frame to depart at its recorded time (the
// TxPipeline timing model), as a copy: flushTX reuses the TX arena long
// before the departure event.
func (d *simDriver) transmit() {
	r := d.r
	for i := range r.txBatch {
		var t *simTx
		if n := len(d.txFree); n > 0 {
			t = d.txFree[n-1]
			d.txFree = d.txFree[:n-1]
		} else {
			t = &simTx{}
		}
		t.f[0].Data = append(t.f[0].Data[:0], r.txBatch[i].Data...)
		t.f[0].Addr = r.txBatch[i].Addr
		d.sched.AtCall(d.txDep[i], d.txFn, t)
	}
	d.txDep = d.txDep[:0]
}

// offload models the worker thread, which runs in parallel with the
// dispatch thread, as the handler completing after its execution time.
func (d *simDriver) offload(handler func(), cost sim.Time) {
	d.sched.At(d.cursor+sim.Time(float64(cost)*d.scale), handler)
}
