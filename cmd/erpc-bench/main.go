// Command erpc-bench regenerates the eRPC paper's tables and figures
// on the simulated substrates.
//
// Usage:
//
//	erpc-bench -list
//	erpc-bench -exp fig4              # one experiment, full scale
//	erpc-bench -exp tab5 -scale 0.25  # quick run
//	erpc-bench -all                   # everything (slow: many minutes)
//
// Each report prints the paper's reported value next to the measured
// value. Absolute equality is not the goal (the substrate is a
// simulator); the shape — who wins, by what factor, where crossovers
// fall — is.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/experiments"
)

// printf is the progress printer of the chaos sweep.
func printf(format string, a ...any) { fmt.Printf(format, a...) }

func main() {
	var (
		exp      = flag.String("exp", "", "experiment id(s), comma separated (see -list)")
		scale    = flag.Float64("scale", 1.0, "scale factor: <1 shrinks clusters and windows")
		seed     = flag.Int64("seed", 42, "simulation seed")
		burst    = flag.Int("burst", 0, "RX/TX burst size per event-loop iteration (0 = default 16)")
		all      = flag.Bool("all", false, "run every experiment")
		list     = flag.Bool("list", false, "list experiment ids")
		datapath = flag.String("datapath", "", "measure the datapath benchmark (multicore sweep: Mrps, wall s, allocs/op) and write/update this JSON artifact")
		chaos    = flag.String("chaos", "", "measure the fault-tolerance layer under scripted chaos (loss storm, blackhole, straggler, dup burst, overload, graceful drain: per-phase goodput, recovery ms, retransmit/reject budgets, at-most-once audit) and write this JSON artifact")
	)
	flag.Parse()

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return
	}
	if *burst < 0 {
		fmt.Fprintf(os.Stderr, "erpc-bench: -burst must be >= 0 (got %d)\n", *burst)
		os.Exit(2)
	}
	opts := experiments.Options{Scale: *scale, Seed: *seed, Burst: *burst}
	if *datapath != "" {
		if err := writeDatapath(*datapath, opts); err != nil {
			fmt.Fprintf(os.Stderr, "erpc-bench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *chaos != "" {
		if err := writeChaos(*chaos, opts); err != nil {
			fmt.Fprintf(os.Stderr, "erpc-bench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *all {
		experiments.RunAll(os.Stdout, opts)
		return
	}
	if *exp == "" {
		fmt.Fprintln(os.Stderr, "erpc-bench: need -exp <id>, -all or -list")
		flag.Usage()
		os.Exit(2)
	}
	for _, id := range strings.Split(*exp, ",") {
		fn, ok := experiments.Registry[id]
		if !ok {
			fmt.Fprintf(os.Stderr, "erpc-bench: unknown experiment %q (try -list)\n", id)
			os.Exit(2)
		}
		fn(opts).Print(os.Stdout)
	}
}

// datapathFile is the BENCH_datapath.json schema: the multicore sweep
// measured pre-refactor (baseline, frozen once recorded) and at HEAD
// (current, regenerated by `make bench`).
type datapathFile struct {
	Benchmark string              `json:"benchmark"`
	Scale     float64             `json:"scale"`
	Seed      int64               `json:"seed"`
	Baseline  *datapathRunSection `json:"baseline,omitempty"`
	Current   *datapathRunSection `json:"current,omitempty"`
}

type datapathRunSection struct {
	Note string                        `json:"note,omitempty"`
	Rows []experiments.MulticoreResult `json:"rows"`
}

// chaosFile is the BENCH_chaos.json schema: the fault-tolerance layer
// (adaptive RTO + retry budgets, overload shedding, graceful drain)
// measured under phase-scripted adversity on the real UDP loopback
// datapath. Every scenario must show zero at-most-once violations;
// the blackhole scenario exercises retransmit-budget exhaustion
// (ErrTimeout), the overload scenario reject-budget exhaustion
// (ErrServerOverloaded), and the drain scenario completes admitted
// work with balanced msgbuf alloc/free counts.
type chaosFile struct {
	Benchmark string                        `json:"benchmark"`
	Scale     float64                       `json:"scale"`
	Seed      int64                         `json:"seed"`
	Note      string                        `json:"note,omitempty"`
	Scenarios []experiments.ChaosResult     `json:"scenarios"`
	Drain     *experiments.ChaosDrainResult `json:"drain"`
}

// writeChaos runs the chaos sweep and writes the JSON artifact at
// path.
func writeChaos(path string, opts experiments.Options) error {
	scenarios, drain := experiments.ChaosSweep(opts, printf)
	f := chaosFile{
		Benchmark: "fault-tolerance chaos sweep: windowed 32B echo RPCs over loopback through pre/fault/post wall-clock phases; faults are a scripted loss storm, blackhole partition, straggler latency, duplication burst (transport.Chaos on the client TX side), a server-side overload window (SrvInFlightLimit + slow handlers -> PktReject), and a graceful drain under multi-packet worker load",
		Scale:     opts.Scale,
		Seed:      opts.Seed,
		Note: "recovery_ms is fault-window end to first successful completion (goodput return after the wire heals); " +
			"at_most_once_violations counts requests the server executed more than once and must be zero everywhere; " +
			"krps is wall-clock over loopback and scheduler-bound on small hosts — the per-phase shape, not the absolute rate, is the measure",
		Scenarios: scenarios,
		Drain:     &drain,
	}
	var fatal []string
	for _, s := range scenarios {
		if s.AtMostOnceViolations > 0 {
			fatal = append(fatal, fmt.Sprintf("%s: %d at-most-once violations", s.Scenario, s.AtMostOnceViolations))
		}
		if s.RecoveryMs < 0 {
			fatal = append(fatal, fmt.Sprintf("%s: no completion after the fault window", s.Scenario))
		}
	}
	if drain.AtMostOnceViolations > 0 {
		fatal = append(fatal, fmt.Sprintf("drain: %d at-most-once violations", drain.AtMostOnceViolations))
	}
	if !drain.Drained {
		fatal = append(fatal, "drain: server did not drain within the deadline")
	}
	if drain.MsgbufAllocs != drain.MsgbufFrees {
		fatal = append(fatal, fmt.Sprintf("drain: msgbuf leak (%d allocs, %d frees)", drain.MsgbufAllocs, drain.MsgbufFrees))
	}
	if len(fatal) > 0 {
		for _, m := range fatal {
			printf("FAIL: %s\n", m)
		}
		if err := experiments.WriteJSONReport(path, &f); err != nil {
			return err
		}
		return fmt.Errorf("chaos sweep violated protocol invariants: %s", strings.Join(fatal, "; "))
	}
	return experiments.WriteJSONReport(path, &f)
}

// writeDatapath runs the datapath benchmark (the multicore endpoint
// sweep, measuring simulated Mrps plus host-side wall seconds and heap
// allocations per RPC) and updates the JSON artifact at path. An
// existing baseline section is preserved (a corrupt file is an error,
// so the frozen baseline can't be silently replaced); if the file is
// new, the run is recorded as both baseline and current.
func writeDatapath(path string, opts experiments.Options) error {
	var df datapathFile
	if prev, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(prev, &df); err != nil {
			return fmt.Errorf("existing %s is not valid JSON (fix or delete it to re-baseline): %w", path, err)
		}
	}
	df.Benchmark = "multicore endpoint sweep (see BenchmarkMulticore); Mrps is simulated, wall_sec and allocs_per_op are host-side datapath cost"
	df.Scale = opts.Scale
	df.Seed = opts.Seed
	rows := make([]experiments.MulticoreResult, 0, len(experiments.MulticoreEndpoints))
	for _, eps := range experiments.MulticoreEndpoints {
		m := experiments.MulticoreMeasure(eps, opts)
		rows = append(rows, m)
		fmt.Printf("endpoints=%d  %.2f Mrps  %.3f wall s  %.1f allocs/op\n",
			m.Endpoints, m.Mrps, m.WallSec, m.AllocsPerOp)
	}
	df.Current = &datapathRunSection{Note: "HEAD (regenerate with `make bench`)", Rows: rows}
	if df.Baseline == nil {
		df.Baseline = &datapathRunSection{Note: "first recorded run", Rows: rows}
	}
	return experiments.WriteJSONReport(path, &df)
}
