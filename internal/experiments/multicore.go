package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/workload"
)

func init() {
	register("multicore", Multicore)
}

// MulticoreEndpoints is the endpoint-count sweep of the multicore
// experiment.
var MulticoreEndpoints = []int{1, 2, 4, 8}

// Multicore measures the multi-endpoint runtime: a server process with
// E dispatch endpoints (one simnet port each, one simulated core each,
// sharing one Nexus), loaded by enough single-endpoint client nodes to
// saturate it, with sessions striped across the server's endpoints by
// flow hash. Requests/sec must scale with endpoint count — the paper's
// §6.3 claim that eRPC's per-core rate (~5 Mrps on small RPCs) holds
// as dispatch threads are added, because endpoints share nothing but
// the read-only Nexus. CX5 (40 GbE) keeps the NIC from bottlenecking
// the 8-endpoint point.
func Multicore(opts Options) *Report {
	opts = opts.norm()
	rep := &Report{ID: "multicore", Title: "Multi-endpoint scaling: small-RPC rate vs server dispatch endpoints (CX5)"}
	// The paper's abstract: "up to 10 million small RPCs per second on
	// a single core", scaling linearly with dispatch threads until the
	// NIC saturates (~54 Mrps of 92 B wire frames on this 40 GbE
	// profile).
	paper := map[int]string{1: "~10", 2: "~20", 4: "~40", 8: "~54 (NIC-limited)"}
	var base float64
	for _, eps := range MulticoreEndpoints {
		rate := multicoreRun(eps, opts)
		meas := fmt.Sprintf("%.1f Mrps", rate)
		if base == 0 {
			base = rate
		} else {
			meas += fmt.Sprintf(" (%.2fx)", rate/base)
		}
		rep.Add(fmt.Sprintf("%d endpoint(s)", eps), paper[eps], meas)
	}
	rep.Notes = "endpoints share one sealed Nexus and nothing else; sessions stripe across them by flow hash; " +
		"the 8-endpoint point is bound by the host's 40 GbE link, not by dispatch CPU."
	return rep
}

// multicoreRun runs the sweep's E-endpoint configuration and returns
// the server's total request rate in Mrps.
func multicoreRun(eps int, opts Options) float64 {
	opts = opts.norm()
	prof := simnet.CX5()
	// Enough client nodes (one dispatch core each) to saturate the
	// server at every sweep point: demand ≈ clients × 5 Mrps.
	clients := 16
	if opts.Scale < 1 {
		clients = 12
	}
	sched := sim.NewScheduler(opts.Seed)
	fab, err := simnet.New(sched, simnet.Config{Profile: prof, Topology: simnet.SingleSwitch(1 + clients)})
	if err != nil {
		panic(err)
	}
	nx := EchoNexus(32)
	cfg := func(node int) core.Config {
		return core.Config{
			Transport:    fab.AttachEndpoint(node),
			Clock:        sched,
			Sched:        sched,
			LinkRateGbps: prof.LinkGbps,
			CPUScale:     prof.CPUScale,
			TxPipeline:   prof.SWPipeline,
		}
	}

	// Server: E endpoints on node 0 (one simnet port per endpoint).
	srvCfgs := make([]core.Config, eps)
	for i := range srvCfgs {
		srvCfgs[i] = cfg(0)
	}
	server := core.NewServer(nx, srvCfgs, 0)
	server.Start() // no-op in sim mode; the scheduler drives dispatch

	// Clients: one endpoint per node, sessions striped across the
	// server's endpoints by flow hash (full coverage per client via
	// the stripe rotation).
	cliCfgs := make([]core.Config, clients)
	for i := range cliCfgs {
		cliCfgs[i] = cfg(1 + i)
	}
	client := core.NewClient(nx, cliCfgs)
	warm := 300 * sim.Microsecond
	dur := sim.Time(float64(2*sim.Millisecond) * opts.Scale)
	loads := make([]*workload.Symmetric, clients)
	for i := 0; i < clients; i++ {
		var sess []*core.Session
		for k := 0; k < eps; k++ {
			s, err := client.CreateSession(i, server.Addrs())
			if err != nil {
				panic(err)
			}
			sess = append(sess, s)
		}
		loads[i] = &workload.Symmetric{
			Rpc: client.Rpc(i), Sessions: sess, ReqType: 1,
			B: 3, Window: 60, ReqSize: 32, RespSize: 32,
			Rng:   rand.New(rand.NewSource(opts.Seed + int64(i))),
			Sched: sched, MeasureAfter: warm,
		}
		loads[i].Start()
	}
	sched.RunUntil(warm + dur)
	var total uint64
	for _, l := range loads {
		total += l.Completed
	}
	return float64(total) / (float64(dur) / 1e9) / 1e6
}
