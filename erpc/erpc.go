// Package erpc is the public API of this eRPC reproduction: a fast,
// general-purpose RPC library for datacenter networks (Kalia,
// Kaminsky, Andersen — "Datacenter RPCs can be General and Fast",
// NSDI 2019).
//
// # Model
//
// Servers register request handlers with a Nexus (one per process),
// keyed by a request type byte. Each dispatch thread owns one Rpc
// endpoint; a Session is a one-to-one connection between two
// endpoints. RPCs are asynchronous: EnqueueRequest returns
// immediately and the continuation runs from the endpoint's event
// loop when the response arrives. Handlers run in the dispatch
// thread by default, or in worker threads when marked long-running.
//
// # Quickstart
//
//	nx := erpc.NewNexus()
//	nx.Register(1, erpc.Handler{Fn: func(ctx *erpc.ReqContext) {
//		out := ctx.AllocResponse(len(ctx.Req))
//		copy(out, ctx.Req)
//		ctx.EnqueueResponse()
//	}})
//	rpc := erpc.NewRpc(nx, erpc.Config{Transport: tr, Clock: erpc.NewWallClock()})
//	sess, _ := rpc.CreateSession(serverAddr)
//	req, resp := rpc.Alloc(5), rpc.Alloc(64)
//	copy(req.Data(), "hello")
//	rpc.EnqueueRequest(sess, 1, req, resp, func(err error) { ... })
//	rpc.RunEventLoop(stop)
//
// Two transports are provided: a real UDP transport (NewUDPTransport)
// for running on commodity kernels, and the simulated datacenter
// fabric in internal/simnet used by the paper-reproduction benchmarks.
package erpc

import (
	"fmt"
	"net"
	"strconv"

	"repro/internal/core"
	"repro/internal/msgbuf"
	"repro/internal/sim"
	"repro/internal/transport"
)

// Core types, re-exported.
type (
	// Rpc is an RPC endpoint owned by one dispatch thread.
	Rpc = core.Rpc
	// Server is a multi-endpoint serving process: N dispatch
	// goroutines, each owning one Rpc endpoint, sharing one sealed
	// Nexus and one worker pool.
	Server = core.Server
	// Client is the requester-side counterpart of Server; it stripes
	// sessions across a server's endpoints by flow hash.
	Client = core.Client
	// Config configures an Rpc endpoint.
	Config = core.Config
	// Nexus is the per-process request handler registry.
	Nexus = core.Nexus
	// Handler services one request type.
	Handler = core.Handler
	// ReqContext is passed to request handlers.
	ReqContext = core.ReqContext
	// Session is a connection between two Rpc endpoints.
	Session = core.Session
	// Opts toggles the common-case optimizations (paper Table 3).
	Opts = core.Opts
	// CostModel is the simulated CPU cost model.
	CostModel = core.CostModel
	// Stats counts endpoint events.
	Stats = core.Stats
	// Buf is a zero-copy message buffer.
	Buf = msgbuf.Buf
	// Addr identifies an Rpc endpoint (node, port).
	Addr = transport.Addr
	// Transport is unreliable datagram I/O, eRPC's only network
	// requirement.
	Transport = transport.Transport
	// Frame is one packet of a TX/RX burst (see transport.Frame for
	// the buffer-ownership rules of the burst datapath).
	Frame = transport.Frame
	// Clock supplies timestamps (virtual or wall).
	Clock = sim.Clock
	// Time is a nanosecond timestamp/duration on the Clock.
	Time = sim.Time
)

// Errors, re-exported.
var (
	ErrRespTooBig      = core.ErrRespTooBig
	ErrPeerFailure     = core.ErrPeerFailure
	ErrSessionClosed   = core.ErrSessionClosed
	ErrTooManySessions = core.ErrTooManySessions
	ErrReqTooBig       = core.ErrReqTooBig
	// ErrTimeout: the request exhausted its Config.MaxRetransmits
	// budget of consecutive timeouts without progress.
	ErrTimeout = core.ErrTimeout
	// ErrServerOverloaded: the server explicitly rejected the request
	// (overload shedding or drain) past the Config.MaxRejects budget.
	ErrServerOverloaded = core.ErrServerOverloaded
	// ErrDraining: the endpoint is draining (Rpc.Drain / Server.Drain);
	// no new sessions or requests are admitted.
	ErrDraining = core.ErrDraining
)

// Constants and defaults, re-exported.
const (
	// DefaultCredits is every session's credit limit C (§4.3.1); no
	// Config changes it.
	DefaultCredits = core.DefaultCredits
	// DefaultNumSlots is every session's number of concurrent requests
	// (§4.3); no Config changes it, so client and server agree on it.
	DefaultNumSlots = core.DefaultNumSlots
	DefaultRTO      = core.DefaultRTO
	// DefaultBurstSize is the paper's RX/TX burst: frames moved per
	// event-loop iteration and per DMA-queue flush of an endpoint the
	// simulator drives (Config.Sched). An endpoint a goroutine drives
	// over a real transport moves 64, what one sendmmsg of the batched
	// UDP engine takes. No Config changes either.
	DefaultBurstSize = core.DefaultBurstSize
	// DefaultRTOMin floors the adaptive per-session RTO estimate
	// (Config.RTOMin overrides; Config.RTOMax defaults to 4x RTO).
	DefaultRTOMin = core.DefaultRTOMin
	// DefaultMaxRetransmits is the budget of consecutive timeouts
	// without progress before ErrTimeout (Config.MaxRetransmits).
	DefaultMaxRetransmits = core.DefaultMaxRetransmits
	// DefaultMaxRejects is the budget of consecutive server rejections
	// before ErrServerOverloaded (Config.MaxRejects).
	DefaultMaxRejects = core.DefaultMaxRejects
)

// NewNexus returns an empty handler registry.
func NewNexus() *Nexus { return core.NewNexus() }

// NewRpc creates an endpoint using the handlers registered with nexus.
func NewRpc(nexus *Nexus, cfg Config) *Rpc { return core.NewRpc(nexus, cfg) }

// NewWallClock returns a Clock backed by the monotonic system clock,
// for real-transport deployments.
func NewWallClock() Clock { return sim.NewWallClock() }

// NewUDPTransport binds a real UDP socket for endpoint addr at the
// given bind address (e.g. "127.0.0.1:0"). Use AddPeer on the returned
// transport to map remote endpoint addresses to UDP addresses before
// the endpoint's loop first sends: only that loop sends, and it reads
// the peer table without a lock. The
// socket uses the platform's best syscall engine: batched
// sendmmsg/recvmmsg on Linux amd64/arm64 (one kernel crossing per RX/TX
// burst), with segmentation offload (UDP_SEGMENT supersegment TX,
// UDP_GRO coalesced RX — one kernel stack traversal per same-peer run
// of a burst) where the kernel and the socket accept it, and the
// portable per-packet engine elsewhere; the transport's Engine,
// Syscalls, MmsgBatches, GsoSegments and GroBatches report which one
// ran and what it cost.
func NewUDPTransport(addr Addr, bind string) (*transport.UDP, error) {
	return transport.NewUDP(addr, bind)
}

// NewUDPTransportMmsg is NewUDPTransport with segmentation offload
// forced off: batched sendmmsg/recvmmsg where compiled in, the
// per-packet fallback elsewhere — what NewUDPTransport runs by itself
// on kernels without UDP_SEGMENT/UDP_GRO.
func NewUDPTransportMmsg(addr Addr, bind string) (*transport.UDP, error) {
	return transport.NewUDPMmsg(addr, bind)
}

// NewUDPTransportPerPacket is NewUDPTransport with the portable
// per-packet syscall engine forced (one syscall per datagram), for
// comparing engines or sidestepping the batched path.
func NewUDPTransportPerPacket(addr Addr, bind string) (*transport.UDP, error) {
	return transport.NewUDPPerPacket(addr, bind)
}

// NewUDPTransportUring is NewUDPTransport: the io_uring engine it used
// to select is gone (EXPERIMENTS.md, "Retired loopback sweeps").
//
// Deprecated: call NewUDPTransport. Kept only because the benchmark's
// per-engine rows name it; it goes when they do.
func NewUDPTransportUring(addr Addr, bind string) (*transport.UDP, error) {
	return NewUDPTransport(addr, bind)
}

// UDPMmsgSupported reports whether the batched sendmmsg/recvmmsg UDP
// engine is compiled into this binary (Linux amd64/arm64).
const UDPMmsgSupported = transport.MmsgSupported

// UDPGsoSupported reports whether the batched engine can offload
// segmentation (UDP_SEGMENT supersegment TX + UDP_GRO coalesced RX)
// here: compiled in (Linux amd64/arm64) and accepted by the kernel
// (UDP_SEGMENT/UDP_GRO probe, cached). When true, NewUDPTransport and
// the listen helpers report engine "gso". It is the runtime mirror of
// UDPReusePortSupported.
func UDPGsoSupported() bool { return transport.UDPGsoSupported() }

// NewServer builds a multi-endpoint server: one Rpc per Config (each
// Config carries its own Transport), one dispatch goroutine per
// endpoint after Start, a shared pool of `workers` goroutines for
// RunInWorker handlers (<= 0 means GOMAXPROCS).
func NewServer(nexus *Nexus, cfgs []Config, workers int) *Server {
	return core.NewServer(nexus, cfgs, workers)
}

// NewClient builds the requester-side endpoint group. Use
// Client.CreateSession to stripe sessions across a server's endpoints.
func NewClient(nexus *Nexus, cfgs []Config) *Client {
	return core.NewClient(nexus, cfgs)
}

// ListenUDP binds n UDP sockets for the endpoints (node, 0..n-1) of a
// multi-endpoint process at host:basePort .. host:basePort+n-1 (or n
// ephemeral ports when basePort is 0). On error, already-bound sockets
// are closed.
func ListenUDP(node uint16, host string, basePort, n int) ([]*transport.UDP, error) {
	return transport.ListenUDP(node, host, basePort, n)
}

// ListenUDPShards binds n SO_REUSEPORT shard sockets, all on one UDP
// address, for the endpoints (node, 0..n-1) of a sharded server
// process: the kernel hashes each client flow to one shard, and that
// shard's dispatch goroutine owns the flow's socket, receive windows
// and syscall-engine state exclusively (paper §4.1's
// one-queue-pair-per-thread discipline). Where SO_REUSEPORT is
// unavailable (see UDPReusePortSupported) the shards fall back to n
// distinct consecutive ports — the ListenUDP layout — so callers that
// wire peers from the shards' BoundAddr work identically in both
// modes. Sharding is for server (receive-side) processes; client
// endpoints keep distinct ports so responses reach the endpoint that
// issued the requests.
func ListenUDPShards(node uint16, bind string, n int) ([]*transport.UDP, error) {
	return transport.ListenUDPShards(node, bind, n)
}

// UDPReusePortSupported reports whether ListenUDPShards binds its
// shards to one shared UDP address via SO_REUSEPORT on this platform
// (Linux amd64/arm64), or falls back to distinct per-shard ports.
const UDPReusePortSupported = transport.ReusePortSupported

// UDPConfigs returns one endpoint Config per transport, with a wall
// clock — the usual real-transport process setup.
func UDPConfigs(trs []*transport.UDP) []Config {
	cfgs := make([]Config, len(trs))
	for i, tr := range trs {
		cfgs[i] = Config{Transport: tr, Clock: NewWallClock()}
	}
	return cfgs
}

// SplitHostPort parses "host:port" into host and numeric port — the
// inverse of the joining ListenUDP and AddPeersUDP do internally.
func SplitHostPort(s string) (string, int, error) {
	host, ps, err := net.SplitHostPort(s)
	if err != nil {
		return "", 0, fmt.Errorf("erpc: bad address %q: %w", s, err)
	}
	port, err := strconv.Atoi(ps)
	if err != nil {
		return "", 0, fmt.Errorf("erpc: bad port in %q: %w", s, err)
	}
	return host, port, nil
}

// AddPeerAll maps the remote endpoint's eRPC address to its UDP
// address on every local transport.
func AddPeerAll(locals []*transport.UDP, remote Addr, udpAddr string) error {
	for _, l := range locals {
		if err := l.AddPeer(remote, udpAddr); err != nil {
			return err
		}
	}
	return nil
}

// AddPeersUDP maps the n endpoints (remoteNode, 0..n-1) of a remote
// multi-endpoint process, listening at consecutive UDP ports starting
// at basePort, onto every local transport.
func AddPeersUDP(locals []*transport.UDP, remoteNode uint16, host string, basePort, n int) error {
	for i := 0; i < n; i++ {
		addr := net.JoinHostPort(host, strconv.Itoa(basePort+i))
		if err := AddPeerAll(locals, Addr{Node: remoteNode, Port: uint16(i)}, addr); err != nil {
			return err
		}
	}
	return nil
}

// AddPeersShared maps the n endpoints (remoteNode, 0..n-1) of a remote
// SO_REUSEPORT-sharded process — all listening behind the single UDP
// address udpAddr — onto every local transport. The kernel, not the
// mapping, picks the shard that serves each local flow. Use only when
// the remote really shares one port (see UDPReusePortSupported on its
// build); a fallback per-port remote needs AddPeersUDP.
func AddPeersShared(locals []*transport.UDP, remoteNode uint16, udpAddr string, n int) error {
	for i := 0; i < n; i++ {
		if err := AddPeerAll(locals, Addr{Node: remoteNode, Port: uint16(i)}, udpAddr); err != nil {
			return err
		}
	}
	return nil
}

// AddPeersFrom maps every remote transport's endpoint address to its
// actual bound socket on every local transport — the in-process wiring
// helper that works for ListenUDP and ListenUDPShards layouts alike
// (sharded remotes resolve every endpoint to the one shared address;
// per-port remotes to their own ports).
func AddPeersFrom(locals, remotes []*transport.UDP) error {
	for _, rt := range remotes {
		if err := AddPeerAll(locals, rt.LocalAddr(), rt.BoundAddr().String()); err != nil {
			return err
		}
	}
	return nil
}

// UDPSyscallStats sums the syscall counters over a process's UDP
// transports: the engine name ("mixed" if the transports disagree,
// "none" for an empty set), total data-plane kernel crossings, and
// how many of them were multi-message sendmmsg/recvmmsg batches. The
// erpc-server/-client commands report these at exit.
func UDPSyscallStats(trs []*transport.UDP) (engine string, syscalls, batches uint64) {
	engine = "none"
	for _, tr := range trs {
		switch e := tr.Engine(); engine {
		case "none", e:
			engine = e
		default:
			engine = "mixed"
		}
		syscalls += tr.Syscalls.Load()
		batches += tr.MmsgBatches.Load()
	}
	return engine, syscalls, batches
}

// UDPShardStats formats one exit-report line per transport — its
// endpoint, socket, syscall engine, kernel-crossing counters and
// receive queue (the socket's granted receive buffer and the datagrams
// the kernel dropped at it, see transport.UDP.Drops). It is what
// erpc-server/erpc-client print at exit so sharding skew is visible in
// the field; the lines label plain per-port endpoints and reuseport
// shards alike (the socket address tells them apart). Close the
// transports first for exact counts.
func UDPShardStats(trs []*transport.UDP) []string {
	lines := make([]string, len(trs))
	for i, tr := range trs {
		lines[i] = fmt.Sprintf("endpoint %v on %s (%s): %d syscalls, %d mmsg batches, %d gso segments, %d gro batches, rq %d B, %d rq drops",
			tr.LocalAddr(), tr.BoundAddr(), tr.Engine(),
			tr.Syscalls.Load(), tr.MmsgBatches.Load(),
			tr.GsoSegments.Load(), tr.GroBatches.Load(),
			tr.RcvBuf(), tr.Drops.Load())
	}
	return lines
}

// UDPGsoStats sums the segmentation-offload counters over a process's
// UDP transports: datagrams transmitted inside UDP_SEGMENT
// supersegments, received supersegments that arrived UDP_GRO-
// coalesced, and the frames split out of them, each aliasing its
// segment of the receive window. All are zero unless segmentation
// offload ran (see UDPGsoSupported). The erpc-server/-client commands
// report these at exit; close the transports first for exact counts.
func UDPGsoStats(trs []*transport.UDP) (gsoSegments, groBatches, groAliasedSegs uint64) {
	for _, tr := range trs {
		gsoSegments += tr.GsoSegments.Load()
		groBatches += tr.GroBatches.Load()
		groAliasedSegs += tr.GroAliasedSegs.Load()
	}
	return gsoSegments, groBatches, groAliasedSegs
}

// ChaosPhase is one timed segment of a scripted fault scenario; see
// transport.ChaosPhase.
type ChaosPhase = transport.ChaosPhase

// NewChaosTransport wraps t with the phase-scripted chaos engine
// (deterministic seed; timed phases of loss storms, blackhole windows,
// straggler latency and duplication bursts — clean wire once the
// script ends). now supplies the engine's clock in nanoseconds. Like
// the transport it wraps, it has one owner, the endpoint's loop; see
// transport.Chaos.
func NewChaosTransport(t Transport, seed int64, now func() int64, phases []ChaosPhase) *transport.Chaos {
	return transport.NewChaos(t, seed, now, phases)
}
