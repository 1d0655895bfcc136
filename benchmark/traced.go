package main

import (
	"fmt"
	"path/filepath"

	"repro/internal/stats"
)

// runTraced produces the per-layer metrics of one workload: an
// untraced reference trial for the counters and the harness.* cells,
// and a traced trial for the ledger. addHost completes the result.
func runTraced(w *workloadSpec, o options) (*runResult, error) {
	unit := o.seconds / runSeconds
	r := &runResult{Workload: w.name, Mode: "traced", Metrics: map[string]float64{}, defs: perLayer}
	m := r.Metrics

	ref, err := runTrial(trialCfg{w: w, seed: o.seed, warm: o.warm, measure: secs(3 * unit)})
	if err != nil {
		return nil, err
	}
	tr, err := runTrial(trialCfg{w: w, seed: o.seed, warm: o.warm, measure: secs(5 * unit), traced: true})
	if err != nil {
		return nil, err
	}
	r.Engine = ref.engine
	for _, t := range []*trialResult{ref, tr} {
		r.Attempted += t.attempted()
		r.Failed += t.failed + t.unresolved
	}

	// Counters and distribution detail from the untraced reference.
	ops := float64(ref.completed)
	r.Samples = ref.rtt.Count()
	m["harness.rtt_p25_us"] = ref.rtt.Percentile(25)
	m["harness.rtt_p50_us"] = ref.rtt.Percentile(50)
	m["harness.rtt_p99_us"] = ref.rtt.Percentile(99)
	m["harness.rtt_mean_us"] = ref.rtt.Mean()
	m["harness.rtt_slow_share"] = ratio(ref.slow, uint64(r.Samples))
	m["harness.cpu_us_per_op"] = float64(ref.cpuNs) / 1e3 / ops
	m["harness.allocs_per_op"] = float64(ref.mallocs) / ops
	m["harness.fail_share"] = float64(r.Failed) / float64(r.Attempted)
	m["harness.goodput_gbps"] = stats.Gbps(ref.payloadBytes, ref.windowNs)
	m["harness.setup_work_ms"] = ref.setupWorkS * 1e3
	m["core.pkts_tx_per_op"] = float64(ref.core.pktsTx) / ops
	m["core.tx_batch_fill"] = ratio(ref.core.pktsTx, ref.core.txBursts)
	m["core.retransmits_per_kop"] = 1e3 * float64(ref.core.retransmits) / ops
	m["core.zero_copy_tx_per_op"] = float64(ref.core.zeroCopyTx) / ops
	// The sockets' counters; all 0 on proto_inmem, which has no socket.
	u := ref.udp
	m["harness.syscalls_per_op"] = float64(u.syscalls) / ops
	m["transport.gso_segs_per_syscall"] = ratio(u.gsoSegs, u.syscalls)
	m["transport.gro_aliased_share"] = ratio(u.groAliased, ref.core.pktsRx)
	m["transport.rx_ring_drops"] = float64(u.drops)
	m["transport.rxpool_shared_put_share"] = ratio(u.sharedPuts, u.sharedPuts+u.fastPuts)

	// The ledger from the traced trial.
	tops := float64(tr.completed)
	var sum ledger
	var self, count, argSum [numSpanKinds]int64
	var empty, rxNonEmpty, overNs, overCnt int64
	worst := 0.0
	for i := range tr.aggs {
		t := &tr.aggs[i]
		l := t.ledger()
		sum.core += l.core
		sum.transport += l.transport
		sum.app += l.app
		sum.park += l.park
		worst = max(worst, l.unattributedShare())
		for k := range self {
			self[k] += t.self[k]
			count[k] += t.count[k]
			argSum[k] += t.argSum[k]
		}
		empty += t.emptyIters
		rxNonEmpty += t.rxNonEmpty
		overNs += t.parkOverNs
		overCnt += t.parkOverCnt
	}
	m["core.busy_ns_per_op"] = float64(sum.core) / tops
	m["core.park_ns_per_op"] = float64(sum.park) / tops
	// 0 where the loop never parks (proto_inmem's driven loop).
	m["core.park_overshoot_us"] = ratio(uint64(overNs), uint64(overCnt)) / 1e3
	m["core.empty_iter_share"] = ratio(uint64(empty), uint64(count[spRunOnce]))
	m["transport.send_burst_ns_per_op"] = float64(self[spSend]) / tops
	m["transport.recv_burst_ns_per_op"] = float64(self[spRecv]) / tops
	m["transport.rx_burst_fill"] = ratio(uint64(argSum[spRecv]), uint64(rxNonEmpty))
	m["app.handler_ns_per_op"] = float64(self[spHandler]) / tops
	m["app.cont_ns_per_op"] = float64(self[spCont]) / tops
	m["ledger.unattributed_pct"] = 100 * worst
	// Time nobody worked on the RPC: mean RTT minus both endpoints'
	// busy time per RPC; addHost takes off what the kernel alone needs
	// for a UDP round trip.
	m["ledger.idle_wait_us_per_op"] = tr.rtt.Mean() - float64(sum.core+sum.transport+sum.app)/tops/1e3
	// Event-loop iterations of the client per RPC: counted exactly on
	// proto_inmem's driven loop, from run_once spans elsewhere.
	if w.inmem {
		m["core.iters_per_op"] = float64(ref.passes) / ops
	} else {
		m["core.iters_per_op"] = float64(tr.passes) / tops
	}

	path := filepath.Join(o.out, "trace-"+w.name+".json")
	if err := writeTrace(path, w.name, tr.tracers, tr.aggs); err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	return r, nil
}

// maxUnattributedPct is how much of an endpoint's wall time the traced
// ledger may leave uncovered.
const maxUnattributedPct = 2

// checkTraced is the traced run's hard check beside "no RPC failed":
// per endpoint, the spans sum to wall time within maxUnattributedPct.
// A goroutine descheduled between two top-level spans puts a whole
// time slice into the gap, which a full-length window absorbs and a
// smoke-test window may not; the test retries, a real run does not.
func (r *runResult) checkTraced() {
	if u := r.Metrics["ledger.unattributed_pct"]; u >= maxUnattributedPct {
		r.Faults = append(r.Faults, fmt.Sprintf("traced ledger leaves %.2f %% of wall time unattributed, limit %d %%", u, maxUnattributedPct))
	}
}

// addHost merges the host-wide layer numbers (nil with -layers=false)
// into a traced run, which then reports every declared name.
func (r *runResult) addHost(host *layerResult) {
	if host == nil {
		return
	}
	m := r.Metrics
	for k, v := range host.m {
		m[k] = v
	}
	r.Notes = append(r.Notes, host.notes...)
	r.Attempted += host.attempted
	r.Failed += host.failed
	m["harness.fail_share"] = float64(r.Failed) / float64(r.Attempted)
	if !findWorkload(r.Workload).inmem {
		m["ledger.idle_wait_us_per_op"] -= m["kernel.udp_rtt_p50_us"]
	}
}
