package core

import (
	"runtime"
	"sync"
	"time"

	"repro/internal/transport"
)

// This file implements the multi-endpoint process runtime: the paper's
// process model (§3.1-3.2) where one Nexus is shared by N Rpc
// endpoints, each owned by its own dispatch thread with its own
// transport queue, plus a process-wide pool of worker threads for
// long-running handlers. A Server groups the endpoints of a serving
// process; a Client is its requester-side counterpart that stripes
// sessions across a server's endpoints by flow hash, so load balances
// across the server's dispatch threads the same way ECMP balances
// flows across links.

// WorkerPool is a fixed-size set of worker goroutines shared by the
// endpoints of a process (the paper's worker threads, §3.2). Handlers
// registered with RunInWorker execute here, keeping dispatch threads
// responsive; sharing one pool across endpoints bounds the process's
// total worker concurrency regardless of endpoint count.
type WorkerPool struct {
	ch   chan func()
	done chan struct{}
	wg   sync.WaitGroup

	mu     sync.Mutex // serializes Submit's enqueue against Close
	closed bool
}

// workerQueueCap bounds pending worker handlers; a full queue blocks
// the submitting dispatch thread (backpressure, like a full request
// queue in the paper's worker model).
const workerQueueCap = 4096

// NewWorkerPool starts n worker goroutines; n <= 0 means GOMAXPROCS.
func NewWorkerPool(n int) *WorkerPool {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	p := &WorkerPool{ch: make(chan func(), workerQueueCap), done: make(chan struct{})}
	for i := 0; i < n; i++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			for {
				select {
				case fn := <-p.ch:
					fn()
				case <-p.done:
					// Drain queued work, then exit.
					for {
						select {
						case fn := <-p.ch:
							fn()
						default:
							return
						}
					}
				}
			}
		}()
	}
	return p
}

// Submit enqueues fn for execution on a worker goroutine. After Close,
// fn runs inline on the caller — a shutdown-window straggler should
// still produce its response, just without worker parallelism. The
// enqueue happens under the pool mutex, so every fn that enters the
// queue does so before Close marks the pool closed, and the workers'
// shutdown drain is guaranteed to run it; a Submit blocked on a full
// queue holds the mutex, delaying Close until workers (still live,
// since done isn't closed yet) make room.
func (p *WorkerPool) Submit(fn func()) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		fn()
		return
	}
	p.ch <- fn
	p.mu.Unlock()
}

// Close stops accepting work and waits for the workers to finish the
// queued handlers. Idempotent.
func (p *WorkerPool) Close() {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		close(p.done)
	}
	p.mu.Unlock()
	p.wg.Wait()
}

// endpointGroup is the machinery common to Server and Client: a set of
// Rpc endpoints plus the dispatch goroutines that own them over real
// transports. With Config.Sched set the discrete-event scheduler owns
// every endpoint and Start has nothing to start.
type endpointGroup struct {
	rpcs     []*Rpc
	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

func (g *endpointGroup) init(nexus *Nexus, cfgs []Config, pool *WorkerPool) {
	if len(cfgs) == 0 {
		panic("erpc: endpoint group needs at least one Config")
	}
	g.stop = make(chan struct{})
	for i := range cfgs {
		cfg := cfgs[i]
		if (cfg.Sched != nil) != (cfgs[0].Sched != nil) {
			panic("erpc: endpoint group mixes simulation and real-transport configs")
		}
		if cfg.Pool == nil {
			// A caller-supplied per-endpoint pool wins over the
			// group's shared one.
			cfg.Pool = pool
		}
		g.rpcs = append(g.rpcs, NewRpc(nexus, cfg))
	}
}

// NumEndpoints returns the number of Rpc endpoints in the group.
func (g *endpointGroup) NumEndpoints() int { return len(g.rpcs) }

// Rpc returns endpoint i. Its methods (other than Post) must only be
// called from its dispatch context.
func (g *endpointGroup) Rpc(i int) *Rpc { return g.rpcs[i] }

// Addrs returns the transport address of every endpoint, in endpoint
// order. Clients stripe sessions across this slice.
func (g *endpointGroup) Addrs() []transport.Addr {
	addrs := make([]transport.Addr, len(g.rpcs))
	for i, r := range g.rpcs {
		addrs[i] = r.LocalAddr()
	}
	return addrs
}

// Start launches one dispatch goroutine per endpoint, and none for an
// endpoint the scheduler drives: its events run that loop.
func (g *endpointGroup) Start() {
	for _, r := range g.rpcs {
		if r.cpu != nil {
			continue
		}
		g.wg.Add(1)
		go func() {
			defer g.wg.Done()
			r.RunEventLoop(g.stop)
		}()
	}
}

// stopLoops halts the dispatch goroutines and waits for them to exit.
// Idempotent: deferred cleanup Stops may overlap explicit ones.
func (g *endpointGroup) stopLoops() {
	g.stopOnce.Do(func() { close(g.stop) })
	g.wg.Wait()
}

// Stats sums the per-endpoint counters. Call it after Stop (or from a
// quiesced simulation): reading counters while dispatch goroutines run
// is racy.
func (g *endpointGroup) Stats() Stats {
	var total Stats
	for _, r := range g.rpcs {
		total.add(&r.Stats)
	}
	return total
}

func (a *Stats) add(b *Stats) {
	a.ReqsEnqueued += b.ReqsEnqueued
	a.ReqsCompleted += b.ReqsCompleted
	a.ReqsFailed += b.ReqsFailed
	a.PktsTx += b.PktsTx
	a.PktsRx += b.PktsRx
	a.BytesTx += b.BytesTx
	a.BytesRx += b.BytesRx
	a.Retransmits += b.Retransmits
	a.PktsPaced += b.PktsPaced
	a.TimelyUpdates += b.TimelyUpdates
	a.DMAFlushes += b.DMAFlushes
	a.TxBursts += b.TxBursts
	a.StalePktsRx += b.StalePktsRx
	a.HandlersRun += b.HandlersRun
	a.WorkerHandlers += b.WorkerHandlers
	a.PeerFailures += b.PeerFailures
	a.BudgetExhausted += b.BudgetExhausted
	a.RejectsTx += b.RejectsTx
	a.RejectsRx += b.RejectsRx
	a.OverloadFails += b.OverloadFails
	// The RTO fields are gauges, not counters: aggregate to the most
	// conservative view (largest current, widest observed range).
	if b.RTOCur > a.RTOCur {
		a.RTOCur = b.RTOCur
	}
	if b.RTOMinSeen != 0 && (a.RTOMinSeen == 0 || b.RTOMinSeen < a.RTOMinSeen) {
		a.RTOMinSeen = b.RTOMinSeen
	}
	if b.RTOMaxSeen > a.RTOMaxSeen {
		a.RTOMaxSeen = b.RTOMaxSeen
	}
}

// Server is a multi-endpoint serving process: N dispatch goroutines,
// each owning one Rpc endpoint with its own transport queue, all
// sharing one sealed Nexus and one worker pool. It is the process-level
// object of the paper's §3.1 ("a process with N dispatch threads")
// scaled-out counterpart of a single Rpc.
type Server struct {
	endpointGroup
	pool *WorkerPool
}

// NewServer builds one Rpc endpoint per Config. Every Config must carry
// its own Transport (one UDP socket or simnet port per endpoint);
// workers sizes the shared pool for RunInWorker handlers (<= 0 means
// GOMAXPROCS). With Config.Sched set no pool is created: the scheduler
// models workers.
func NewServer(nexus *Nexus, cfgs []Config, workers int) *Server {
	s := &Server{}
	if len(cfgs) > 0 && cfgs[0].Sched == nil {
		s.pool = NewWorkerPool(workers)
	}
	s.endpointGroup.init(nexus, cfgs, s.pool)
	return s
}

// Stop drains and closes the worker pool first — the dispatch loops
// are still running and consuming worker completions, so queued
// handlers can deliver their responses — then halts the dispatch
// goroutines (whose final loop iteration flushes completions posted
// in the stop window). The reverse order would strand queued worker
// handlers' responses.
func (s *Server) Stop() {
	if s.pool != nil {
		s.pool.Close()
	}
	s.stopLoops()
}

// Drain gracefully drains the serving process: every endpoint stops
// admitting new sessions and requests (arrivals draw PktReject),
// admitted work — in-flight RPCs, the TX batch, worker handlers — runs
// to completion, and then the process stops. It
// returns true if every endpoint fully drained before timeout elapsed;
// on false, Stop has still been called (a deadline overrun must not
// leave the process half-alive). It needs the dispatch goroutines
// running; simulations call Rpc.Drain on the scheduler.
func (s *Server) Drain(timeout time.Duration) bool {
	ok := s.endpointGroup.drain(timeout)
	s.Stop()
	return ok
}

// drain flips every endpoint into draining mode and polls Drained on
// each dispatch context until all report empty or the deadline passes.
func (g *endpointGroup) drain(timeout time.Duration) bool {
	for _, r := range g.rpcs {
		r.goroutine().call(r.Drain)
	}
	deadline := time.Now().Add(timeout)
	for {
		all := true
		for _, r := range g.rpcs {
			r.goroutine().call(func() { all = all && r.Drained() })
		}
		if all {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
}

// Client is the requester-side counterpart of Server: a group of
// endpoints whose sessions are striped across a server's endpoints by
// flow hash. Its endpoints can also serve requests (eRPC is symmetric;
// the nexus handlers apply).
type Client struct {
	endpointGroup
	nextStripe []int // per-endpoint count of sessions created so far
}

// NewClient builds one Rpc endpoint per Config (each with its own
// Transport).
func NewClient(nexus *Nexus, cfgs []Config) *Client {
	c := &Client{}
	c.endpointGroup.init(nexus, cfgs, nil)
	c.nextStripe = make([]int, len(c.rpcs))
	return c
}

// CreateSession opens a session from client endpoint i to one of the
// remote endpoints, chosen by flow-hash striping: the k-th session of
// an endpoint lands on remotes[(FlowHash+k) % len], so every client
// endpoint starts at a pseudo-random server endpoint and successive
// sessions rotate through the rest. Call before Start, or from the
// endpoint's dispatch context (via Post).
func (c *Client) CreateSession(i int, remotes []transport.Addr) (*Session, error) {
	r := c.rpcs[i]
	k := c.nextStripe[i]
	c.nextStripe[i]++
	return r.CreateSession(StripeAddr(r.LocalAddr(), remotes, k))
}

// Stop halts the dispatch goroutines.
func (c *Client) Stop() { c.stopLoops() }

// StripeAddr picks the remote endpoint for the k-th session from
// local: a FlowHash-derived starting offset (so distinct client
// endpoints spread across the server's dispatch threads) advanced
// round-robin by k (so one client endpoint's sessions cover them all).
func StripeAddr(local transport.Addr, remotes []transport.Addr, k int) transport.Addr {
	if len(remotes) == 0 {
		panic("erpc: StripeAddr with no remote endpoints")
	}
	// Reduce the hash in uint32 first: on 32-bit platforms int(hash)
	// can be negative, and a negative modulo would index out of range.
	start := int(transport.FlowHash(local, remotes[0]) % uint32(len(remotes)))
	return remotes[(start+k)%len(remotes)]
}
