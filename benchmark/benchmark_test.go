package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
	"time"

	"repro/internal/transport"
)

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestManifestMatchesHarness: BENCHMARK.json and the harness's own
// tables declare the same workloads and metrics.
func TestManifestMatchesHarness(t *testing.T) {
	m := readManifest(t)
	var declared []workloadSpec
	for _, w := range workloads {
		if !w.layerOnly {
			declared = append(declared, w)
		}
	}
	if len(m.Workloads) != len(declared) {
		t.Fatalf("BENCHMARK.json has %d workloads, harness %d", len(m.Workloads), len(declared))
	}
	for i, w := range declared {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: manifest %+v, harness {%s %s}", i, m.Workloads[i], w.name, w.why)
		}
	}
	if m.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, harness %d", m.RunSeconds, runSeconds)
	}
	check := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, harness %d", kind, len(got), len(want))
		}
		seen := map[string]bool{}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better || g.Bound != d.Bound {
				t.Errorf("%s %d: manifest %+v, harness %+v", kind, i, g, d)
			}
			if !nameRE.MatchString(d.Name) || seen[d.Name] {
				t.Errorf("%s: bad or repeated name %q", kind, d.Name)
			}
			seen[d.Name] = true
		}
	}
	check("end_to_end", m.EndToEnd, endToEnd)
	check("per_layer", m.PerLayer, perLayer)
}

func smokeOptions(t *testing.T) options {
	return options{seed: 7, seconds: 1, trials: 1, trial: 0.15, layers: true,
		out: t.TempDir(), warm: 50 * time.Millisecond}
}

// emitted checks that a run reports exactly the declared names.
func emitted(t *testing.T, r *runResult, defs []metricDef) {
	t.Helper()
	for _, d := range defs {
		if _, ok := r.Metrics[d.Name]; !ok {
			t.Errorf("%s %s: declared metric %s not emitted", r.Workload, r.Mode, d.Name)
		}
	}
	if len(r.Metrics) != len(defs) {
		declared := map[string]bool{}
		for _, d := range defs {
			declared[d.Name] = true
		}
		for name := range r.Metrics {
			if !declared[name] {
				t.Errorf("%s %s: undeclared metric %s emitted", r.Workload, r.Mode, name)
			}
		}
	}
	if r.Failed != 0 || r.Attempted == 0 {
		t.Errorf("%s %s: %d of %d RPCs failed", r.Workload, r.Mode, r.Failed, r.Attempted)
	}
	if _, err := r.jsonLine(); err != nil {
		t.Error(err)
	}
}

// TestSmoke runs every workload briefly, timed and traced: no RPC
// fails, exactly the declared metrics come out, and the traced ledger
// sums to wall time within 2 %.
func TestSmoke(t *testing.T) {
	o := smokeOptions(t)
	host, err := hostLayers(o)
	if err != nil {
		t.Fatal(err)
	}
	for i := range workloads {
		w := &workloads[i]
		r, err := runTimed(w, o)
		if err != nil {
			t.Fatal(err)
		}
		emitted(t, r, endToEnd)
		for _, d := range endToEnd {
			if !(r.Metrics[d.Name] > 0) {
				t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.name, d.Name, r.Metrics[d.Name])
			}
		}

		// A goroutine descheduled between two top-level spans puts a
		// whole time slice into the unattributed gap; on a loaded test
		// machine a 0.15 s window can catch one, so the 2 % check gets
		// three windows here (a real run gets one: checkTraced).
		var tr *runResult
		for try := 0; try < 3; try++ {
			if tr, err = runTraced(w, o); err != nil {
				t.Fatal(err)
			}
			if tr.checkTraced(); len(tr.Faults) == 0 {
				break
			}
		}
		if len(tr.Faults) != 0 {
			t.Errorf("%s: %v", w.name, tr.Faults)
		}
		tr.addHost(host)
		emitted(t, tr, perLayer)
		if _, err := os.Stat(o.out + "/trace-" + w.name + ".json"); err != nil {
			t.Error(err)
		}
	}
}

// TestHardChecks: an allocating echo or a ledger that does not sum
// makes the run incorrect, as a failed RPC does.
func TestHardChecks(t *testing.T) {
	if transport.DebugEnabled || transport.RaceEnabled {
		t.Skip("the erpcdebug sanitizer and the race detector allocate")
	}
	line := func(r *runResult) string {
		s, err := r.jsonLine()
		if err != nil {
			t.Fatal(err)
		}
		return s[:len(`{"correct":false`)]
	}
	for _, c := range []struct {
		workload string
		allocs   float64
		correct  bool
	}{{"echo_w1", 0.004, true}, {"echo_w1", 0.05, false}, {"proto_inmem", 0.5, false}, {"bulk_64k", 6, true}} {
		r := &runResult{Attempted: 1}
		r.checkTimed(findWorkload(c.workload), c.allocs)
		if r.correct() != c.correct {
			t.Errorf("%s at %v allocs/op: correct = %v", c.workload, c.allocs, r.correct())
		}
	}
	r := &runResult{Attempted: 1, Metrics: map[string]float64{"ledger.unattributed_pct": 1.9}}
	if r.checkTraced(); line(r) != `{"correct":true,` {
		t.Errorf("1.9 %% unattributed: %s", line(r))
	}
	r.Metrics["ledger.unattributed_pct"] = 2
	if r.checkTraced(); line(r) != `{"correct":false` {
		t.Errorf("2 %% unattributed: %s", line(r))
	}
}

// TestInmemDeterminism: proto_inmem's packet schedule is the same on
// every run and every seed — the property later count-based claims
// rest on.
func TestInmemDeterminism(t *testing.T) {
	w := findWorkload("proto_inmem")
	run := func(seed int64, wall bool) *trialResult {
		tr, err := runTrial(trialCfg{w: w, seed: seed, warm: 50 * time.Millisecond,
			measure: 200 * time.Millisecond, wallClock: wall})
		if err != nil {
			t.Fatal(err)
		}
		if tr.failed+tr.unresolved != 0 {
			t.Fatalf("%d RPCs failed", tr.failed+tr.unresolved)
		}
		return tr
	}
	a, b, c := run(1, false), run(1, false), run(2, false)
	for _, tr := range []*trialResult{a, b, c} {
		ops := float64(tr.completed)
		if got := float64(tr.core.pktsTx) / ops; got != 2 {
			t.Errorf("core.pkts_tx_per_op = %v, want exactly 2", got)
		}
		if got := float64(tr.passes) / ops; got != 0.125 {
			t.Errorf("core.iters_per_op = %v, want exactly 0.125", got)
		}
		if tr.core.retransmits != 0 {
			t.Errorf("%d retransmits on a lossless in-memory pair", tr.core.retransmits)
		}
		// The erpcdebug sanitizer and the race detector allocate.
		if got := float64(tr.mallocs) / ops; got >= 0.01 && !transport.DebugEnabled && !transport.RaceEnabled {
			t.Errorf("allocs_per_op = %v, want < 0.01", got)
		}
	}
	// The contrast the README states: the same loop on the wall clock.
	wc := run(1, true)
	t.Logf("proto_inmem on the wall clock: %.3f loop passes/op, %d retransmits in %d RPCs (virtual clock: 0.125, 0)",
		float64(wc.passes)/float64(wc.completed), wc.core.retransmits, wc.completed)
}
