// Incast: the paper's §6.5 scenario — 50 clients blast 8 MB requests
// at one victim server on the simulated CX4 cluster while Timely
// congestion control keeps switch queueing (measured as per-packet
// RTT at the clients) an order of magnitude below the uncontrolled
// case. Toggle -cc=false to watch the queue grow to the full credit
// window.
//
//	go run ./examples/incast [-cc=false] [-degree 50]
package main

import (
	"flag"
	"fmt"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/stats"
	"repro/internal/workload"
)

func main() {
	cc := flag.Bool("cc", true, "enable Timely congestion control")
	degree := flag.Int("degree", 50, "incast degree (number of clients)")
	flag.Parse()
	n := *degree

	sched := sim.NewScheduler(1)
	prof := simnet.CX4()
	fab, err := simnet.New(sched, simnet.Config{
		Profile:  prof,
		Topology: simnet.SingleSwitch(n + 1),
		Jitter:   sim.Time(n) * 400, // µs-scale RTT noise of a loaded fabric
	})
	if err != nil {
		panic(err)
	}

	nx := core.NewNexus()
	nx.Register(1, core.Handler{Fn: func(ctx *core.ReqContext) {
		ctx.AllocResponse(32)
		ctx.EnqueueResponse()
	}})
	mk := func(node int) *core.Rpc {
		return core.NewRpc(nx, core.Config{
			Transport: fab.AttachEndpoint(node), Clock: sched, Sched: sched,
			LinkRateGbps: prof.LinkGbps, CPUScale: prof.CPUScale, TxPipeline: prof.SWPipeline,
			TimelyMinRTT: 6 * sim.Microsecond,
			Opts:         core.Opts{DisableCC: !*cc},
		})
	}
	victim := mk(n)
	rtts := stats.NewRecorder(1 << 18)
	warm := 20 * sim.Millisecond
	for i := 0; i < n; i++ {
		cli := mk(i)
		cli.RTTHook = func(rtt sim.Time) {
			if sched.Now() >= warm {
				rtts.Add(float64(rtt) / 1000)
			}
		}
		sess, err := cli.CreateSession(victim.LocalAddr())
		if err != nil {
			panic(err)
		}
		flow := &workload.Incast{Rpc: cli, Session: sess, ReqType: 1, ReqSize: 8 << 20, Sched: sched, MeasureAfter: warm}
		flow.Start()
	}
	var before uint64
	sched.At(warm, func() { before = fab.Stats.BytesDelivered })
	dur := 20 * sim.Millisecond
	sched.RunUntil(warm + dur)

	bw := stats.Gbps(fab.Stats.BytesDelivered-before, int64(dur))
	fmt.Printf("%d-way incast of 8 MB requests, congestion control = %v\n", n, *cc)
	fmt.Printf("total goodput: %.1f Gbps (achievable ≈ 23 Gbps)\n", bw)
	fmt.Printf("per-packet RTT at clients (µs): %s\n", rtts.Summary())
	fmt.Printf("switch buffer drops: %d\n", fab.Stats.DroppedBuffer)
	fmt.Println("compare with -cc=false: median RTT grows ~10x as the full credit window queues (paper Table 5)")
}
