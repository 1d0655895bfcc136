package experiments

import (
	"math/rand"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// Cluster is a simulated testbed: a fabric plus one Rpc endpoint per
// (node, thread).
type Cluster struct {
	Sched *sim.Scheduler
	Fab   *simnet.Fabric
	Prof  simnet.Profile
	Rpcs  []*core.Rpc // indexed node*ThreadsPerNode + thread
	Spec  ClusterSpec
	Rng   *rand.Rand
}

// ClusterSpec describes a testbed to build.
type ClusterSpec struct {
	Prof           simnet.Profile
	Topo           simnet.Topology
	Nodes          int // nodes to populate (≤ Topo.Nodes())
	ThreadsPerNode int
	Nexus          *core.Nexus
	Seed           int64
	// NetMut tweaks the fabric config (loss injection etc.).
	NetMut func(*simnet.Config)
	// CfgMut tweaks each endpoint's config (opts, RQ size etc.).
	CfgMut func(node, thread int, cfg *core.Config)
	// TimelyMinRTT overrides Timely's gradient-normalization RTT; 0
	// keeps the default.
	TimelyMinRTT sim.Time
}

// BuildCluster constructs the testbed.
func BuildCluster(spec ClusterSpec) *Cluster {
	if spec.Nodes == 0 {
		spec.Nodes = spec.Topo.Nodes()
	}
	if spec.ThreadsPerNode == 0 {
		spec.ThreadsPerNode = 1
	}
	sched := sim.NewScheduler(spec.Seed)
	ncfg := simnet.Config{Profile: spec.Prof, Topology: spec.Topo}
	if spec.NetMut != nil {
		spec.NetMut(&ncfg)
	}
	fab, err := simnet.New(sched, ncfg)
	if err != nil {
		panic(err)
	}
	c := &Cluster{Sched: sched, Fab: fab, Prof: spec.Prof, Spec: spec, Rng: sched.Rand()}
	for n := 0; n < spec.Nodes; n++ {
		for t := 0; t < spec.ThreadsPerNode; t++ {
			cfg := core.Config{
				Transport:    fab.AttachEndpoint(n),
				Clock:        sched,
				Sched:        sched,
				LinkRateGbps: spec.Prof.LinkGbps,
				CPUScale:     spec.Prof.CPUScale,
				TxPipeline:   spec.Prof.SWPipeline,
				TimelyMinRTT: spec.TimelyMinRTT,
			}
			if spec.CfgMut != nil {
				spec.CfgMut(n, t, &cfg)
			}
			c.Rpcs = append(c.Rpcs, core.NewRpc(spec.Nexus, cfg))
		}
	}
	return c
}

// Rpc returns the endpoint for (node, thread).
func (c *Cluster) Rpc(node, thread int) *core.Rpc {
	return c.Rpcs[node*c.Spec.ThreadsPerNode+thread]
}

// ConnectAllToAll creates a client session from every endpoint to
// every other endpoint (the §6.3 traffic pattern). Returns sessions
// indexed [client][k].
func (c *Cluster) ConnectAllToAll() [][]*core.Session {
	sess := make([][]*core.Session, len(c.Rpcs))
	for i, r := range c.Rpcs {
		for j, peer := range c.Rpcs {
			if i == j {
				continue
			}
			s, err := r.CreateSession(peer.LocalAddr())
			if err != nil {
				panic(err)
			}
			sess[i] = append(sess[i], s)
		}
	}
	return sess
}

// EchoNexus returns a Nexus with a single echo handler of the given
// response size registered at type 1 (the microbenchmark handler).
func EchoNexus(respSize int) *core.Nexus {
	nx := core.NewNexus()
	nx.Register(1, core.Handler{Fn: func(ctx *core.ReqContext) {
		out := ctx.AllocResponse(respSize)
		n := copy(out, ctx.Req)
		_ = n
		ctx.EnqueueResponse()
	}})
	return nx
}
