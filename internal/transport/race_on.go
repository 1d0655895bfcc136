//go:build race

package transport

// RaceEnabled reports whether this build carries the race detector.
// Tests whose measurement depends on real-time scheduling behavior
// (not on correctness) consult it: the detector's instrumentation
// slows the userspace spin loops by an order of magnitude, which on a
// small host produces timing that the same code never exhibits in a
// release build.
const RaceEnabled = true
