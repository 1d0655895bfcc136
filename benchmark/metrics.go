package main

// metricDef declares one metric: BENCHMARK.json carries name, unit,
// direction and (end-to-end only) the regression bound; Moves — which
// end-to-end metric, on which workload, a layer metric is expected to
// move — is the part BENCHMARK.json's fixed schema has no key for, so
// it lives here, in README.md and in out/results.json.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	Moves  string  `json:"moves,omitempty"`
}

// endToEnd are the metrics a caller of the RPC library sees. Every one
// is reported on every workload and is never zero. The bounds are the
// regression gate's: three times the widest spread any gated workload
// showed (CALIBRATION.md), capped at the gate's 0.25.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "rate_krps", Unit: "krps", Better: "higher", Bound: 0.25},
	{Name: "rtt_p75_us", Unit: "us", Better: "lower", Bound: 0.25},
}

const (
	mvProto   = "harness.proto_inmem.rate_krps (proto_inmem is not gated)"
	mvW1      = "rate_krps, rtt_p75_us@echo_w1"
	mvW128    = "rate_krps@echo_w128, harness.cpu_us_per_op@echo_w128"
	mvBulk    = "rate_krps@bulk_64k, harness.cpu_us_per_op@bulk_64k"
	mvExplain = "explains harness.cpu_us_per_op@echo_w128, bulk_64k"
	mvFloor   = "floor for the fast RTT mode (harness.rtt_p25_us@echo_w1); makes hosts comparable"
	mvInfo    = "informational"
)

// perLayer are the metrics of single layers; layer = module name.
var perLayer = []metricDef{
	// wire
	{Name: "wire.encode_ns", Unit: "ns", Better: "lower", Moves: mvProto},
	{Name: "wire.decode_ns", Unit: "ns", Better: "lower", Moves: mvProto},
	// msgbuf
	{Name: "msgbuf.alloc_free_ns", Unit: "ns", Better: "lower", Moves: mvProto},
	{Name: "msgbuf.alloc_free_64k_ns", Unit: "ns", Better: "lower", Moves: mvBulk},
	{Name: "msgbuf.frame_ns", Unit: "ns", Better: "lower", Moves: mvBulk},
	// transport, micro (default engine)
	{Name: "transport.pool_get_put_ns", Unit: "ns", Better: "lower", Moves: "harness.cpu_us_per_op@echo_w128"},
	{Name: "transport.pool_shared_ns", Unit: "ns", Better: "lower", Moves: "harness.cpu_us_per_op@echo_w128"},
	{Name: "transport.tx_burst1_ns_per_pkt", Unit: "ns", Better: "lower", Moves: "harness.cpu_us_per_op@echo_w1"},
	{Name: "transport.tx_burst16_ns_per_pkt", Unit: "ns", Better: "lower", Moves: mvW128 + "; rate_krps@bulk_64k"},
	{Name: "transport.rx_pps", Unit: "1/s", Better: "higher", Moves: "rate_krps@echo_w128"},
	{Name: "transport.rx_drop_share", Unit: "share", Better: "lower", Moves: "rate_krps@echo_w128"},
	{Name: "transport.wake_p50_us", Unit: "us", Better: "lower", Moves: mvW1 + "; rate_krps@bulk_64k"},
	{Name: "transport.wake_p99_us", Unit: "us", Better: "lower", Moves: "harness.rtt_p99_us@echo_w1"},
	// transport, counters of the workload being run
	{Name: "transport.gso_segs_per_syscall", Unit: "count", Better: "higher", Moves: mvExplain},
	{Name: "transport.gro_aliased_share", Unit: "share", Better: "higher", Moves: mvExplain},
	{Name: "transport.rx_ring_drops", Unit: "count", Better: "lower", Moves: mvExplain},
	{Name: "transport.rxpool_shared_put_share", Unit: "share", Better: "lower", Moves: mvExplain},
	// transport, engines (echo_w128 on each)
	{Name: "transport.engine.gso.rate_krps", Unit: "krps", Better: "higher", Moves: mvInfo},
	{Name: "transport.engine.gso.syscalls_per_op", Unit: "count", Better: "lower", Moves: mvInfo},
	{Name: "transport.engine.mmsg.rate_krps", Unit: "krps", Better: "higher", Moves: mvInfo},
	{Name: "transport.engine.mmsg.syscalls_per_op", Unit: "count", Better: "lower", Moves: mvInfo},
	{Name: "transport.engine.per-packet.rate_krps", Unit: "krps", Better: "higher", Moves: mvInfo},
	{Name: "transport.engine.per-packet.syscalls_per_op", Unit: "count", Better: "lower", Moves: mvInfo},
	{Name: "transport.engine.uring.rate_krps", Unit: "krps", Better: "higher", Moves: mvInfo},
	{Name: "transport.engine.uring.syscalls_per_op", Unit: "count", Better: "lower", Moves: mvInfo},
	// carousel, timely
	{Name: "carousel.insert_poll_ns", Unit: "ns", Better: "lower", Moves: mvBulk + "; " + mvProto + " with a bypass off"},
	{Name: "timely.update_ns", Unit: "ns", Better: "lower", Moves: mvBulk + "; " + mvProto + " with a bypass off"},
	// core, micro and counters of the workload being run
	{Name: "core.runonce_idle_ns", Unit: "ns", Better: "lower", Moves: mvProto},
	{Name: "core.post_wake_p50_us", Unit: "us", Better: "lower", Moves: mvW1},
	{Name: "core.pkts_tx_per_op", Unit: "count", Better: "lower", Moves: mvProto + "; " + mvW128},
	{Name: "core.tx_batch_fill", Unit: "count", Better: "higher", Moves: mvW128},
	{Name: "core.retransmits_per_kop", Unit: "count", Better: "lower", Moves: "harness.rtt_p99_us, rate_krps@bulk_64k"},
	{Name: "core.zero_copy_tx_per_op", Unit: "count", Better: "higher", Moves: mvW128},
	{Name: "core.put_rtt_p50_us", Unit: "us", Better: "lower", Moves: "rate_krps@bulk_64k; 1.5 s of bulk_64k in every traced run"},
	{Name: "core.get_rtt_p50_us", Unit: "us", Better: "lower", Moves: "rate_krps@bulk_64k; 1.5 s of bulk_64k in every traced run"},
	{Name: "core.iters_per_op", Unit: "count", Better: "lower", Moves: mvProto},
	// core, factor analysis (Table 3 on the real code path, proto_inmem)
	{Name: "core.factor.none.ns_per_op", Unit: "ns", Better: "lower", Moves: "the baseline the rows below are read against"},
	{Name: "core.factor.no_cc.ns_per_op", Unit: "ns", Better: "lower", Moves: mvProto},
	{Name: "core.factor.no_batched_ts.ns_per_op", Unit: "ns", Better: "lower", Moves: mvProto},
	{Name: "core.factor.no_timely_bypass.ns_per_op", Unit: "ns", Better: "lower", Moves: mvProto},
	{Name: "core.factor.no_ratelimiter_bypass.ns_per_op", Unit: "ns", Better: "lower", Moves: mvProto},
	{Name: "core.factor.no_multipkt_rq.ns_per_op", Unit: "ns", Better: "lower", Moves: mvProto},
	{Name: "core.factor.no_prealloc_resp.ns_per_op", Unit: "ns", Better: "lower", Moves: mvProto},
	{Name: "core.factor.no_zerocopy_rx.ns_per_op", Unit: "ns", Better: "lower", Moves: mvProto},
	// kernel: host floors, not repo code
	{Name: "kernel.udp_rtt_p50_us", Unit: "us", Better: "lower", Moves: mvFloor},
	{Name: "kernel.timer_200us_p50_us", Unit: "us", Better: "lower", Moves: mvFloor},
	{Name: "kernel.chan_wake_p50_ns", Unit: "ns", Better: "lower", Moves: mvFloor},
	// traced run of the workload being run
	{Name: "core.busy_ns_per_op", Unit: "ns", Better: "lower", Moves: mvProto + "; " + mvW128},
	{Name: "core.park_ns_per_op", Unit: "ns", Better: "lower", Moves: mvW1},
	{Name: "core.park_overshoot_us", Unit: "us", Better: "lower", Moves: mvW1},
	{Name: "core.empty_iter_share", Unit: "share", Better: "lower", Moves: "harness.cpu_us_per_op@echo_w1"},
	{Name: "transport.send_burst_ns_per_op", Unit: "ns", Better: "lower", Moves: mvW128 + "; " + mvBulk},
	{Name: "transport.recv_burst_ns_per_op", Unit: "ns", Better: "lower", Moves: mvW128},
	{Name: "transport.rx_burst_fill", Unit: "count", Better: "higher", Moves: mvW128},
	{Name: "app.handler_ns_per_op", Unit: "ns", Better: "lower", Moves: mvInfo + " (harness code)"},
	{Name: "app.cont_ns_per_op", Unit: "ns", Better: "lower", Moves: mvInfo + " (harness code)"},
	{Name: "ledger.idle_wait_us_per_op", Unit: "us", Better: "lower", Moves: mvW1},
	{Name: "ledger.unattributed_pct", Unit: "%", Better: "lower", Moves: "a traced run is incorrect at 2 or more"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower", Moves: mvInfo},
	// harness: distribution detail, and cells the end-to-end list cannot hold
	{Name: "harness.rtt_p25_us", Unit: "us", Better: "lower", Moves: mvInfo},
	{Name: "harness.rtt_p50_us", Unit: "us", Better: "lower", Moves: "demoted from end-to-end: on echo_w1 the median sits on the cliff between two modes"},
	{Name: "harness.rtt_p99_us", Unit: "us", Better: "lower", Moves: "demoted from end-to-end: doubles while the host is contended (CALIBRATION.md, set E)"},
	{Name: "harness.rtt_mean_us", Unit: "us", Better: "lower", Moves: mvInfo},
	{Name: "harness.rtt_slow_share", Unit: "share", Better: "lower", Moves: "share of RPCs slower than 500 us, i.e. that sat through a park; " + mvW1},
	{Name: "harness.allocs_per_op", Unit: "count", Better: "lower", Moves: "a timed run of echo_w1 or proto_inmem is incorrect at 0.05 or more"},
	{Name: "harness.cpu_us_per_op", Unit: "us", Better: "lower", Moves: "demoted from end-to-end: spreads 0.09-0.20 on a quiet host and doubles when the host is contended"},
	{Name: "harness.syscalls_per_op", Unit: "count", Better: "lower", Moves: "explains harness.cpu_us_per_op on the UDP workloads"},
	{Name: "harness.fail_share", Unit: "share", Better: "lower", Moves: "must be 0: any failed RPC makes the run incorrect"},
	{Name: "harness.goodput_gbps", Unit: "Gbit/s", Better: "higher", Moves: "rate_krps times the workload's payload bits per RPC, so not gated beside it; the paper's bandwidth figure on bulk_64k"},
	{Name: "harness.setup_work_ms", Unit: "ms", Better: "lower", Moves: "setup_s without its fixed warm-up: where set-up work under ~100 ms shows"},
	// proto_inmem and echo_w32, demoted as whole workloads
	{Name: "harness.proto_inmem.rate_krps", Unit: "krps", Better: "higher", Moves: mvInfo + "; follows the host's CPU speed"},
	{Name: "harness.proto_inmem.rtt_p99_us", Unit: "us", Better: "lower", Moves: mvInfo + "; follows the host's CPU speed"},
	{Name: "harness.echo_w32.rate_krps", Unit: "krps", Better: "higher", Moves: mvInfo + "; bimodal on HEAD"},
	{Name: "harness.echo_w32.rtt_p50_us", Unit: "us", Better: "lower", Moves: mvInfo + "; bimodal on HEAD"},
	{Name: "harness.echo_w32.slow_share", Unit: "share", Better: "lower", Moves: mvInfo + "; bimodal on HEAD"},
}
