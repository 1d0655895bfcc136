package core

import (
	"runtime"
	"testing"

	"repro/internal/msgbuf"
	"repro/internal/sim"
	"repro/internal/transport"
)

// BenchmarkEchoWindow is the core protocol loop's cost per RPC without a
// kernel: 16 sessions × 8 slots of 32 B echoes kept outstanding between
// a client and a server endpoint over an in-memory queueTransport pair.
// The benchmark goroutine drives both loops with RunEventLoopOnce on the
// wall clock, so the pass log and RTT sampling run as they do over UDP.
// One op is one RPC; the benchmark fails if the steady state allocates.
func BenchmarkEchoWindow(b *testing.B) {
	if transport.DebugEnabled {
		b.Skip("erpcdebug sanitizer bookkeeping allocates")
	}
	const sessions, size = 16, 32
	cliTr, srvTr := newQueueTransport(), newQueueTransport()
	srvTr.addr = transport.Addr{Node: 2}
	cliTr.peer, srvTr.peer = srvTr, cliTr
	srv := NewRpc(echoNexus(), Config{Transport: srvTr, Clock: sim.NewWallClock()})
	cli := NewRpc(echoNexus(), Config{Transport: cliTr, Clock: sim.NewWallClock()})

	done := 0
	type call struct {
		s         *Session
		req, resp *msgbuf.Buf
		cont      func(error)
	}
	var calls []*call
	for i := 0; i < sessions; i++ {
		s, err := cli.CreateSession(srvTr.addr)
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < DefaultNumSlots; j++ {
			c := &call{s: s, req: cli.Alloc(size), resp: cli.Alloc(size)}
			c.cont = func(err error) {
				if err != nil {
					b.Fatal(err)
				}
				done++
				cli.EnqueueRequest(c.s, echoType, c.req, c.resp, c.cont)
			}
			calls = append(calls, c)
		}
	}
	for _, c := range calls {
		cli.EnqueueRequest(c.s, echoType, c.req, c.resp, c.cont)
	}
	run := func(n int) {
		for end := done + n; done < end; {
			cli.RunEventLoopOnce()
			srv.RunEventLoopOnce()
		}
	}
	run(1000 * len(calls)) // warm up: buffers, queues and Timely settle

	// The steady state allocates nothing. The count is the process's, and
	// the runtime's and the testing package's goroutines allocate now and
	// then, so it is taken over a fixed window: fewer than one allocation
	// per thousand RPCs passes, one per pass (~64 RPCs) does not.
	const window = 100_000
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	run(window)
	runtime.ReadMemStats(&m1)
	mallocs := m1.Mallocs - m0.Mallocs
	if mallocs >= window/1000 {
		b.Fatalf("%d allocations over %d RPCs", mallocs, window)
	}

	b.ResetTimer()
	run(b.N)
	b.ReportMetric(float64(mallocs)/window, "allocs/rpc")
}
