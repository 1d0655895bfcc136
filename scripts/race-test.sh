#!/usr/bin/env bash
# race-test.sh [go test flags] — `go test -race <flags> ./...`, whole
# suite, nothing skipped, with ONE tolerated failure: the 2 % ledger
# sub-check of the benchmark's TestSmoke.
#
# That check bounds the wall time a traced run's spans leave uncovered.
# Under the race detector the tracer's own bookkeeping costs ~1.1 us per
# top-level span and an echo_w1 round trip has at least three of them in
# ~140 us: 2.3 % before the library does anything (2.4-2.5 % measured
# with congestion control off, 2.8-3.7 % with it on). The check passed
# only while a round trip held a 1.2 ms park. The gate belongs in
# benchmark/benchmark_test.go (on transport.RaceEnabled, as TestHardChecks
# does); until a benchmark issue puts it there, this script is that gate
# from outside: TestSmoke still runs all four workloads, timed and
# traced, under the detector, and anything else it or any other test
# reports — a failed RPC, a data race, a sanitizer panic, an undeclared
# metric — fails the leg, because every line of a failing run's output
# must be on the whitelist below.
set -u
log=$(mktemp)
trap 'rm -f "$log"' EXIT
"${GO:-go}" test -race "$@" ./... 2>&1 | tee "$log"
[ "${PIPESTATUS[0]}" -eq 0 ] && exit 0
rest=$(grep -vE \
	-e '^ok[[:space:]]' \
	-e '^\?[[:space:]].*\[no test files\]$' \
	-e '^--- FAIL: TestSmoke \(' \
	-e '^ +benchmark_test\.go:[0-9]+: [a-z0-9_]+: \[traced ledger leaves [0-9.]+ % of wall time unattributed, limit 2 %\]$' \
	-e '^FAIL$' \
	-e '^FAIL[[:space:]]+repro/benchmark[[:space:]]' "$log")
if [ -n "$rest" ]; then
	echo "race-test: failed on more than TestSmoke's 2 % ledger check:" >&2
	echo "$rest" >&2
	exit 1
fi
echo "race-test: only TestSmoke's 2 % ledger check failed (expected under the race detector, see $0)"
