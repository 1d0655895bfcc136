//go:build unix

package erpc_test

import (
	"runtime"
	"sort"
	"syscall"
	"testing"
	"time"

	"repro/erpc"
	"repro/internal/transport"
)

// TestSporadicEchoNotStarved sends one 32 B echo every millisecond, each
// Posted from a timer, on the batched and the per-packet engine. Traffic
// that sparse is not live: both loops sleep in the netpoller between
// echoes, and the round trip is tens of microseconds at p50 and at p95.
// A loop that lingers awake after every pass that received a packet (the
// gap rule dropped from loopDriver.park: awake until the last receive +
// d, whatever the gap before it) and does not yield its thread's CPU
// (osYield dropped too) holds that CPU while the netpoller wakes the
// peer, which waits for the linger to end about one echo in ten: on a
// 2-vCPU guest p50 64-84 µs and p95 250-260 µs, where this code reads
// p50 30-62 and p95 56-107 and its parent, which sleeps after every
// pass, 26-65 and 49-111. (The linger alone, with the CPU yield, reads
// p95 90-185 µs.) The race detector's slowdown alone exceeds the
// bounds.
func TestSporadicEchoNotStarved(t *testing.T) {
	const (
		total  = 400
		every  = time.Millisecond
		maxP50 = 150 * time.Microsecond
		maxP95 = 200 * time.Microsecond
	)
	if transport.RaceEnabled {
		t.Skip("latency bounds do not hold under the race detector")
	}
	for _, engine := range udpEngines() {
		if engine != "gso" && engine != "per-packet" {
			continue
		}
		t.Run(engine, func(t *testing.T) {
			server, client := startEchoPair(t, engine, erpc.Opts{})
			r := client.Rpc(0)
			rtts := make([]time.Duration, 0, total)
			finished := make(chan struct{})
			r.Post(func() {
				sess, err := client.CreateSession(0, server.Addrs())
				if err != nil {
					t.Error(err)
					close(finished)
					return
				}
				req, resp := r.Alloc(32), r.Alloc(32)
				var issue func()
				issue = func() {
					start := time.Now()
					r.EnqueueRequest(sess, 1, req, resp, func(err error) {
						if err != nil {
							t.Errorf("rpc %d: %v", len(rtts), err)
						}
						rtts = append(rtts, time.Since(start))
						if len(rtts) == total {
							close(finished)
							return
						}
						time.AfterFunc(every, func() { r.Post(issue) })
					})
				}
				issue()
			})
			select {
			case <-finished:
			case <-time.After(30 * time.Second):
				t.Fatal("timed out") // rtts belongs to the dispatch goroutine until finished closes
			}
			if len(rtts) != total {
				t.FailNow()
			}
			sort.Slice(rtts, func(i, j int) bool { return rtts[i] < rtts[j] })
			p50, p95 := rtts[total/2], rtts[total*95/100]
			t.Logf("%d echoes %v apart: rtt p50 %v p95 %v", total, every, p50, p95)
			if p50 >= maxP50 || p95 >= maxP95 {
				t.Fatalf("rtt p50 %v p95 %v, want < %v and %v: a peer woken by the netpoller waited for a loop that stayed awake", p50, p95, maxP50, maxP95)
			}
		})
	}
}

// TestIdleEndpointsSleep runs a burst of serial echoes, which makes both
// loops' traffic live, and then leaves them idle for 300 ms: over that
// window the process may use under a tenth of a core. The awake wait
// ends at most d after the last receive. A wait that outlives its
// traffic (loopDriver.park without the "last receive under d ago"
// condition, awake for d from every park) keeps both loops spinning:
// about two cores. Under the race detector the sleeping loops' timer
// wake-ups alone cost about a tenth.
func TestIdleEndpointsSleep(t *testing.T) {
	const (
		idle     = 300 * time.Millisecond
		maxShare = 0.10
	)
	if transport.RaceEnabled {
		t.Skip("the race detector's own cost is near the bound")
	}
	server, client := startEchoPair(t, udpEngines()[0], erpc.Opts{})
	if rtts := echoRTTsKeepRunning(t, server, client, 2000); len(rtts) != 2000 {
		t.Fatalf("%d of 2000 echoes completed", len(rtts))
	}
	cpu0, t0 := processCPU(t), time.Now()
	time.Sleep(idle)
	cpu, wall := processCPU(t)-cpu0, time.Since(t0)
	share := float64(cpu) / float64(wall)
	t.Logf("idle for %v after 2000 echoes: %v of process CPU, %.3f of a core", wall, cpu, share)
	if share >= maxShare {
		t.Fatalf("idle endpoints used %.3f of a core, want < %.2f: the loops waited awake without traffic", share, maxShare)
	}
}

// processCPU is the process's user and system CPU time so far.
func processCPU(t *testing.T) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// TestSerialEchoOneProc is TestSerialEchoNotParkBound with one P
// (GOMAXPROCS 1): both loops and the test share it. A loop waiting awake
// must hand the P to its peer's loop, which cannot otherwise run to
// answer. p75 stays under TestSerialEchoNotParkBound's 500 µs, and p50
// under three quarters of RunEventLoop's 200 µs d: an awake wait that
// does not yield (runtime.Gosched dropped from loopDriver.park's wait)
// holds the P to its end, d after its last receive, and reads p50
// ~210 µs, where this code reads ~11 µs (~65 under the race detector).
func TestSerialEchoOneProc(t *testing.T) {
	const (
		total  = 2000
		maxP50 = 150 * time.Microsecond
		maxP75 = 500 * time.Microsecond
	)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	server, client := startEchoPair(t, udpEngines()[0], erpc.Opts{})
	rtts, _ := echoRTTs(t, server, client, 1, 1, total)
	p50, p75 := rtts[total/2], rtts[total*3/4]
	t.Logf("%d serial echoes on one P: rtt p50 %v p75 %v", total, p50, p75)
	if p50 >= maxP50 || p75 >= maxP75 {
		t.Fatalf("rtt p50 %v p75 %v, want < %v and %v: a loop waiting awake kept the one P from its peer", p50, p75, maxP50, maxP75)
	}
}
