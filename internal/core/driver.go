package core

import (
	"runtime"
	"time"

	"repro/internal/sim"
	"repro/internal/transport"
)

// driver is what differs between an endpoint a goroutine runs over a
// real transport (loopDriver) and one the discrete-event scheduler runs
// in simulated time (simDriver). Nothing here is called per packet.
type driver interface {
	// wake has a pass run soon: a packet reached an empty RX queue or
	// Post queued a closure. Callable from any goroutine.
	wake()
	// transmit puts r.txBatch on the wire; flushTX then empties the
	// batch and reuses its arena, so transmit keeps none of its bytes.
	transmit()
	// offload runs a RunInWorker handler off the dispatch context; cost
	// is the execution time the CostModel gives it.
	offload(handler func(), cost sim.Time)
}

// loopDriver runs an endpoint over a real transport: a goroutine calls
// runOnce while there is work and parks when there is none. Over a
// transport with a Waiter (UDP) it parks in the transport's own wait —
// on its socket, in the netpoller — and wake interrupts that wait;
// otherwise it parks on wakeCh, which the transport's SetWake and wake
// signal, or on waitTimer.
type loopDriver struct {
	r         *Rpc
	w         transport.Waiter
	wakeCh    chan struct{}
	waitTimer *time.Timer // reused by park (alloc-free idle parks)
}

func newLoopDriver(r *Rpc) *loopDriver {
	d := &loopDriver{r: r, w: transport.WaiterOf(r.tr)}
	if d.w == nil {
		d.wakeCh = make(chan struct{}, 1)
		r.tr.SetWake(d.wake)
	}
	return d
}

// goroutine is the driver of an endpoint a goroutine runs, for
// WaitForWork, RunEventLoop and Server.Drain: under the scheduler they
// would block on progress that only comes when the caller runs it.
func (r *Rpc) goroutine() *loopDriver {
	d, ok := r.drv.(*loopDriver)
	if !ok {
		panic("erpc: WaitForWork, RunEventLoop and Server.Drain are for endpoints a goroutine drives; scheduler events run this one (Config.Sched)")
	}
	return d
}

func (d *loopDriver) wake() {
	if d.w != nil {
		d.w.Interrupt()
		return
	}
	select {
	case d.wakeCh <- struct{}{}:
	default:
	}
}

// woken reports, without blocking, whether a packet or a wake arrived.
func (d *loopDriver) woken() bool {
	if d.w != nil {
		return d.w.Wait(0)
	}
	select {
	case <-d.wakeCh:
		return true
	default:
		return false
	}
}

// osYieldEvery is how many turns of the awake wait pass between yields
// of its thread's CPU: a turn is about a microsecond, and a sched_yield
// in every one of them cost a serial echo a tenth of its rate.
const osYieldEvery = 8

// park is WaitForWork: one awake wait, to the wheel's deadline and
// while the traffic is live (receives under dur apart, the last under
// dur ago), and a sleep otherwise. The awake wait yields the
// goroutine's P at every turn, to other goroutines (the peer's loop,
// when there is one P), and its thread's CPU every osYieldEvery turns,
// to threads the OS has runnable there (the peer loop's thread, which a
// netpoller wake-up may place on this CPU, or another process's).
func (d *loopDriver) park(dur time.Duration) {
	r := d.r
	dl, paced := r.wheel.NextDeadline()
	now, ask := r.clock.Now(), sim.Time(dur)
	end := now + ask
	if r.rxPrev != 0 && r.rxLast-r.rxPrev < ask && now-r.rxLast < ask {
		end = r.rxLast + ask
	} else if !paced {
		d.sleep(dur)
		return
	}
	if paced {
		end = min(end, dl)
	}
	for turn := 1; r.clock.Now() < end; turn++ {
		runtime.Gosched()
		if turn%osYieldEvery == 0 {
			osYield()
		}
		if d.woken() {
			return
		}
	}
}

// sleep blocks until a packet or a wake arrives or dur elapses: in the
// transport's Waiter, or else on the SetWake channel and a timer.
func (d *loopDriver) sleep(dur time.Duration) {
	if d.w != nil {
		d.w.Wait(dur)
		return
	}
	if d.waitTimer == nil {
		d.waitTimer = time.NewTimer(dur)
	} else {
		// Reusing one timer keeps idle parking allocation-free (safe
		// without draining since Go 1.23's timer semantics).
		d.waitTimer.Reset(dur)
	}
	select {
	case <-d.wakeCh:
		d.waitTimer.Stop()
	case <-d.waitTimer.C:
	}
}

func (d *loopDriver) run(stop <-chan struct{}) {
	for {
		select {
		case <-stop:
			// One final iteration: deliver work posted while stopping
			// (e.g. worker completions published during Server.Stop),
			// so drained handlers get their responses out.
			d.r.runOnce()
			return
		default:
		}
		d.r.backToBack = d.r.RunEventLoopOnce()
		if !d.r.backToBack {
			d.park(200 * time.Microsecond)
		}
	}
}

// call runs fn on the dispatch context of a running loop and returns
// when it has.
func (d *loopDriver) call(fn func()) {
	done := make(chan struct{})
	d.r.Post(func() { fn(); close(done) })
	<-done
}

// transmit is one SendBurst (one doorbell), which is done with the
// batch's bytes when it returns.
func (d *loopDriver) transmit() { d.r.tr.SendBurst(d.r.txBatch) }

// offload hands the handler to the process's worker pool (§3.2), or to
// a goroutine of its own on an endpoint without one.
func (d *loopDriver) offload(handler func(), _ sim.Time) {
	if p := d.r.pool; p != nil {
		p.Submit(handler)
		return
	}
	go handler()
}
