package experiments

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/transport"
)

// chaosViolations lists every invariant of the fault-tolerance layer
// that a sweep's results break; a sound sweep breaks none.
func chaosViolations(scenarios []ChaosResult, d ChaosDrainResult) []string {
	var bad []string
	timedOut, overloaded := 0, 0
	for _, s := range scenarios {
		if s.AtMostOnceViolations != 0 {
			bad = append(bad, fmt.Sprintf("%s: %d requests executed more than once", s.Scenario, s.AtMostOnceViolations))
		}
		if s.RecoveryMs < 0 || s.RecoveryMs >= s.PostMs {
			bad = append(bad, fmt.Sprintf("%s: recovery %.1f ms is not inside the %.0f ms post window", s.Scenario, s.RecoveryMs, s.PostMs))
		}
		if s.PostKrps <= 0 {
			bad = append(bad, fmt.Sprintf("%s: no goodput after the fault window", s.Scenario))
		}
		if s.Unresolved != 0 {
			bad = append(bad, fmt.Sprintf("%s: %d requests unresolved 30 s past the run window", s.Scenario, s.Unresolved))
		}
		if s.OtherErrors != 0 {
			bad = append(bad, fmt.Sprintf("%s: %d requests failed with an unexpected error", s.Scenario, s.OtherErrors))
		}
		timedOut += s.TimedOut
		overloaded += s.Overloaded
	}
	if timedOut == 0 {
		bad = append(bad, "no scenario exhausted the retransmit budget (ErrTimeout)")
	}
	if overloaded == 0 {
		bad = append(bad, "no scenario exhausted the reject budget (ErrServerOverloaded)")
	}
	if !d.Drained {
		bad = append(bad, "drain: the server did not drain within its deadline")
	}
	if d.AtMostOnceViolations != 0 {
		bad = append(bad, fmt.Sprintf("drain: %d requests executed more than once", d.AtMostOnceViolations))
	}
	if d.Completed == 0 {
		bad = append(bad, "drain: no admitted request completed")
	}
	if d.OKBeforeDrain < chaosDrainMinOK {
		bad = append(bad, fmt.Sprintf("drain: %d requests completed before the drain fired, want %d", d.OKBeforeDrain, chaosDrainMinOK))
	}
	if d.Unresolved != 0 {
		bad = append(bad, fmt.Sprintf("drain: %d requests unresolved 30 s after the drain", d.Unresolved))
	}
	if d.OtherErrors != 0 {
		bad = append(bad, fmt.Sprintf("drain: %d requests failed with an unexpected error", d.OtherErrors))
	}
	if d.MsgbufAllocs != d.MsgbufFrees {
		bad = append(bad, fmt.Sprintf("drain: msgbuf leak (%d allocs, %d frees)", d.MsgbufAllocs, d.MsgbufFrees))
	}
	return bad
}

// TestChaosSweepInvariants runs the chaos sweep at full scale (the
// fault windows must be long enough for the retransmit budget and the
// reject budget to exhaust; ~8 s) and holds it to the invariants: zero
// at-most-once violations everywhere, goodput back inside every post
// window, both budget errors observed, and a drain that completed
// admitted work with balanced msgbufs. -v prints the per-phase table.
func TestChaosSweepInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("runs six wall-clock fault scenarios (~8 s)")
	}
	if transport.RaceEnabled {
		t.Skip("a wall-clock sweep; the race legs drive these paths through internal/core's fault tests and erpc's TestDrainUnderLoad")
	}
	scenarios, drain := ChaosSweep(Options{Scale: 1, Seed: 42}, t.Logf)
	for _, v := range chaosViolations(scenarios, drain) {
		t.Error(v)
	}
}

// TestChaosViolationsDetected doctors a sound result one invariant at
// a time: each must be reported, and the sound result must not be.
func TestChaosViolationsDetected(t *testing.T) {
	sound := func() ([]ChaosResult, ChaosDrainResult) {
		return []ChaosResult{
				{Scenario: "blackhole", PostMs: 600, RecoveryMs: 82, PostKrps: 6, TimedOut: 8},
				{Scenario: "overload", PostMs: 600, RecoveryMs: 2, PostKrps: 5.9, Overloaded: 24},
			}, ChaosDrainResult{
				Issued: 32, Completed: 10, Overloaded: 22, OKBeforeDrain: 4, Drained: true,
				Executions: 10, MsgbufAllocs: 10, MsgbufFrees: 10,
			}
	}
	if bad := chaosViolations(sound()); len(bad) != 0 {
		t.Fatalf("sound result reported: %v", bad)
	}
	for _, tc := range []struct {
		name   string
		doctor func(s []ChaosResult, d *ChaosDrainResult)
		want   string
	}{
		{"double execution", func(s []ChaosResult, _ *ChaosDrainResult) { s[1].AtMostOnceViolations = 1 }, "overload: 1 requests executed more than once"},
		{"no recovery", func(s []ChaosResult, _ *ChaosDrainResult) { s[0].RecoveryMs = -1 }, "blackhole: recovery"},
		{"recovery past the post window", func(s []ChaosResult, _ *ChaosDrainResult) { s[0].RecoveryMs = 600 }, "blackhole: recovery"},
		{"no goodput after the fault", func(s []ChaosResult, _ *ChaosDrainResult) { s[1].PostKrps = 0 }, "overload: no goodput"},
		{"no timeout anywhere", func(s []ChaosResult, _ *ChaosDrainResult) { s[0].TimedOut = 0 }, "ErrTimeout"},
		{"no overload anywhere", func(s []ChaosResult, _ *ChaosDrainResult) { s[1].Overloaded = 0 }, "ErrServerOverloaded"},
		{"drain missed its deadline", func(_ []ChaosResult, d *ChaosDrainResult) { d.Drained = false }, "did not drain"},
		{"double execution in the drain", func(_ []ChaosResult, d *ChaosDrainResult) { d.AtMostOnceViolations = 2 }, "drain: 2 requests"},
		{"drain completed nothing", func(_ []ChaosResult, d *ChaosDrainResult) { d.Completed = 0 }, "no admitted request completed"},
		{"msgbuf leak", func(_ []ChaosResult, d *ChaosDrainResult) { d.MsgbufFrees = 9 }, "msgbuf leak"},
		{"hung requests", func(s []ChaosResult, _ *ChaosDrainResult) { s[0].Unresolved = 3 }, "blackhole: 3 requests unresolved"},
		{"unexpected error", func(s []ChaosResult, _ *ChaosDrainResult) { s[1].OtherErrors = 1 }, "overload: 1 requests failed"},
		{"drain fired early", func(_ []ChaosResult, d *ChaosDrainResult) { d.OKBeforeDrain = 1 }, "drain: 1 requests completed before the drain fired"},
		{"drain left requests unresolved", func(_ []ChaosResult, d *ChaosDrainResult) { d.Unresolved = 5 }, "drain: 5 requests unresolved"},
		{"unexpected error in the drain", func(_ []ChaosResult, d *ChaosDrainResult) { d.OtherErrors = 2 }, "drain: 2 requests failed"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, d := sound()
			tc.doctor(s, &d)
			bad := chaosViolations(s, d)
			if len(bad) != 1 || !strings.Contains(bad[0], tc.want) {
				t.Fatalf("reported %q, want exactly one violation containing %q", bad, tc.want)
			}
		})
	}
}
