// Command benchmark is the repository's one benchmark: four closed-loop
// workloads, the end-to-end metrics a caller of the RPC library sees,
// a per-layer ledger and a traced run. BENCHMARK.json at the repository
// root declares the workloads and metrics by name; README.md in this
// directory states the method.
//
//	go run ./benchmark                         # everything, human-readable
//	go run ./benchmark -workload echo_w1       # one workload, timed
//	go run ./benchmark -workload echo_w1 -trace 1   # its per-layer metrics and trace
//	go run ./benchmark -repeat 5               # calibration table
//
// The last line of standard output is one JSON object for the last
// workload run: {"correct":…, "attempted":…, "failed":…, "metrics":{…}}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/transport"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trials   int
	trial    float64
	trace    int
	layers   bool
	repeat   int
	out      string
	warm     time.Duration // per-trial warm-up; tests shorten it
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "all", "workload to run: all, or one of "+workloadNames())
	flag.Int64Var(&o.seed, "seed", 1, "seed for payload bytes and request ids")
	flag.Float64Var(&o.seconds, "seconds", runSeconds, "measured seconds per workload run, split over the trials")
	flag.IntVar(&o.trials, "trials", 7, "independent trials per timed run (fresh sockets, endpoints, sessions)")
	flag.Float64Var(&o.trial, "trial", 0, "seconds per trial; 0 means seconds/trials")
	flag.IntVar(&o.trace, "trace", -1, "0: timed run, end-to-end metrics; 1: traced run, per-layer metrics; -1: both")
	flag.BoolVar(&o.layers, "layers", true, "with -trace 1, also measure the host-wide layer numbers (micro, engines, factors, kernel)")
	flag.IntVar(&o.repeat, "repeat", 0, "calibration: run the timed suite N times and print per-cell median and spread")
	flag.StringVar(&o.out, "out", filepath.Join("benchmark", "out"), "directory for results.json and trace-<workload>.json")
	flag.Parse()
	o.warm = warmUp
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

func run(o options) error {
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	if o.trials < 1 || o.seconds <= 0 || o.trial < 0 {
		return fmt.Errorf("-trials, -seconds and -trial must be positive")
	}
	if o.trial == 0 {
		o.trial = o.seconds / float64(o.trials)
	}
	var ws []*workloadSpec
	if o.workload == "all" {
		for i := range workloads {
			ws = append(ws, &workloads[i])
		}
	} else if w := findWorkload(o.workload); w != nil {
		ws = []*workloadSpec{w}
	} else {
		return fmt.Errorf("unknown workload %q (have %s)", o.workload, workloadNames())
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	if o.repeat > 0 {
		return calibrate(o, ws)
	}

	art := artifact{Host: hostFacts(), Seed: o.seed, Trials: o.trials, TrialSeconds: o.trial,
		EndToEnd: endToEnd, PerLayer: perLayer}
	fmt.Printf("# closed loop, one process, loopback 127.0.0.1; %s\n", art.Host)
	steal0, total0 := cpuSteal()
	var last *runResult
	var traced []*runResult
	for _, w := range ws {
		if o.trace != 1 {
			r, err := runTimed(w, o)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			r.print()
			art.Runs = append(art.Runs, r)
			last = r
		}
		if o.trace != 0 {
			r, err := runTraced(w, o)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			r.checkTraced()
			traced = append(traced, r)
		}
	}
	if len(traced) > 0 {
		// The host-wide layer numbers are measured once, after the
		// workload runs: the engine runs at their end start an io_uring
		// SQPOLL kernel thread that must not sit beside anything timed.
		var host *layerResult
		if o.layers {
			var err error
			if host, err = hostLayers(o); err != nil {
				return fmt.Errorf("layers: %w", err)
			}
		}
		for _, r := range traced {
			r.addHost(host)
			r.print()
			art.Runs = append(art.Runs, r)
			last = r
		}
	}
	if steal1, total1 := cpuSteal(); total1 > total0 {
		art.StealShare = float64(steal1-steal0) / float64(total1-total0)
		fmt.Printf("\n# the hypervisor withheld %.1f %% of this guest's CPU time during the run\n", 100*art.StealShare)
	}
	if err := writeJSON(filepath.Join(o.out, "results.json"), art); err != nil {
		return err
	}
	line, err := last.jsonLine()
	if err != nil {
		return err
	}
	fmt.Printf("\n%s\n", line)
	return nil
}

// runResult is one workload run: its metrics (median over trials for a
// timed run) and what the contract's last line needs.
type runResult struct {
	Workload  string               `json:"workload"`
	Mode      string               `json:"mode"` // "timed" or "traced"
	Engine    string               `json:"engine"`
	Attempted uint64               `json:"attempted"`
	Failed    uint64               `json:"failed"`
	Metrics   map[string]float64   `json:"metrics"`
	PerTrial  map[string][]float64 `json:"per_trial,omitempty"`
	Samples   int                  `json:"rtt_samples_per_trial,omitempty"`
	// Faults are the hard checks this run did not pass (checkTimed,
	// checkTraced); like a failed RPC, any of them makes the run incorrect.
	Faults []string `json:"faults,omitempty"`
	// Notes say what a reader of the numbers must know, e.g. an engine
	// the kernel refused and what ran in its place.
	Notes []string `json:"notes,omitempty"`

	defs []metricDef
}

func (r *runResult) correct() bool { return r.Failed == 0 && len(r.Faults) == 0 }

// runTimed is the timed run: -trials independent trials, each metric
// computed per trial, the median over trials reported. Tracing is off.
func runTimed(w *workloadSpec, o options) (*runResult, error) {
	r := &runResult{Workload: w.name, Mode: "timed", Metrics: map[string]float64{},
		PerTrial: map[string][]float64{}, defs: endToEnd}
	var allocs []float64
	for i := 0; i < o.trials; i++ {
		tr, err := runTrial(trialCfg{w: w, seed: o.seed + int64(i)*7919, warm: o.warm, measure: secs(o.trial)})
		if err != nil {
			return nil, err
		}
		r.Engine = tr.engine
		r.Attempted += tr.attempted()
		r.Failed += tr.failed + tr.unresolved
		r.Samples = tr.rtt.Count()
		allocs = append(allocs, float64(tr.mallocs)/float64(tr.completed))
		for name, v := range map[string]float64{
			"setup_s":    tr.setupS,
			"rate_krps":  tr.rateKrps(),
			"rtt_p75_us": tr.rtt.Percentile(75),
		} {
			r.PerTrial[name] = append(r.PerTrial[name], v)
		}
	}
	for name, vs := range r.PerTrial {
		r.Metrics[name] = median(vs)
	}
	r.checkTimed(w, median(allocs))
	return r, nil
}

// maxAllocsPerOp is the hard limit on allocations per RPC where neither
// the harness nor the library allocates on HEAD: the issue's absolute
// regression bound. HEAD reads 0.001-0.005 on echo_w1 (a handful of
// allocations per window: runtime timers and the harness's own window
// edges) and 0.0000 on proto_inmem.
const maxAllocsPerOp = 0.05

// checkTimed is the timed run's hard check beside "no RPC failed": on
// the workloads marked allocFree the whole process — harness and
// library — allocates less than maxAllocsPerOp per RPC. The count is an
// absolute limit, not a share of a median, so it is a check and not a
// gated metric (harness.allocs_per_op reports it in traced runs).
func (r *runResult) checkTimed(w *workloadSpec, allocsPerOp float64) {
	// The erpcdebug sanitizer and the race detector allocate.
	if w.allocFree && allocsPerOp >= maxAllocsPerOp && !transport.DebugEnabled && !transport.RaceEnabled {
		r.Faults = append(r.Faults, fmt.Sprintf("%.4f allocations per RPC, limit %v", allocsPerOp, maxAllocsPerOp))
	}
}

// warmUp precedes every measured window.
const warmUp = 500 * time.Millisecond

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func (t *trialResult) rateKrps() float64 { return float64(t.completed) / (float64(t.windowNs) / 1e6) }

func (r *runResult) print() {
	fmt.Printf("\n## %s (%s, engine %s): attempted %d, failed %d", r.Workload, r.Mode, r.Engine, r.Attempted, r.Failed)
	if r.Samples > 0 {
		fmt.Printf(", %d rtt samples in the last trial", r.Samples)
	}
	fmt.Println()
	for _, d := range r.defs {
		v, ok := r.Metrics[d.Name]
		if !ok {
			continue
		}
		fmt.Printf("%-46s %14.6g %-7s", d.Name, v, d.Unit)
		if vs := r.PerTrial[d.Name]; len(vs) > 1 {
			lo, hi := minMax(vs)
			fmt.Printf("  min %.6g max %.6g over %d trials", lo, hi, len(vs))
		}
		fmt.Println()
	}
	for _, n := range r.Notes {
		fmt.Printf("# note: %s\n", n)
	}
	for _, f := range r.Faults {
		fmt.Printf("# FAULT: %s\n", f)
	}
}

// jsonLine is the contract's last line of output.
func (r *runResult) jsonLine() (string, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted uint64        `json:"attempted"`
		Failed    uint64        `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{Correct: r.correct(), Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]mv{}}
	for _, d := range r.defs {
		v, ok := r.Metrics[d.Name]
		if !ok {
			continue
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return "", fmt.Errorf("%s: metric %s is %v", r.Workload, d.Name, v)
		}
		out.Metrics[d.Name] = mv{v, d.Unit}
	}
	b, err := json.Marshal(out)
	return string(b), err
}

// artifact is benchmark/out/results.json.
type artifact struct {
	Host         string       `json:"host"`
	StealShare   float64      `json:"steal_share"`
	Seed         int64        `json:"seed"`
	Trials       int          `json:"trials"`
	TrialSeconds float64      `json:"trial_seconds"`
	EndToEnd     []metricDef  `json:"end_to_end"`
	PerLayer     []metricDef  `json:"per_layer"`
	Runs         []*runResult `json:"runs"`
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// hostFacts is what makes numbers from different hosts comparable.
func hostFacts() string {
	kernel := "unknown"
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(b))
	}
	return fmt.Sprintf("nproc %d, GOMAXPROCS %d, %s/%s, kernel %s, %s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.GOOS, runtime.GOARCH, kernel, runtime.Version())
}

// cpuSteal reads the guest's stolen and total CPU ticks from /proc/stat
// (zeros where there is none). Runs taken while the hypervisor withholds
// tens of percent of the CPU are the outliers of CALIBRATION.md; the
// share is printed so that such a run can be told from a regression.
func cpuSteal() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, s := range f[1:] {
		v, _ := strconv.ParseUint(s, 10, 64)
		// guest and guest_nice (fields 9, 10) are already in user and nice
		if i < 8 {
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// runSeconds is BENCHMARK.json's run_seconds: what the regression gate
// passes as -seconds.
const runSeconds = 35
