GO ?= go

.PHONY: build cross-build test race vet bench bench-once bench-smoke fuzz fmt-check ci test-debug

build:
	$(GO) build ./...

# The engine is chosen from GOOS/GOARCH and a kernel probe, so the
# portable stubs (udp_batch_other.go, udp_reuseport_other.go) never
# compile on the Linux amd64 test host: build them for a non-Linux and
# a non-amd64/arm64 target.
cross-build:
	GOOS=darwin GOARCH=arm64 $(GO) build ./...
	GOOS=linux GOARCH=386 $(GO) build ./...

test:
	$(GO) test ./...

# The two race legs go through scripts/race-test.sh: the whole suite,
# nothing skipped, tolerating exactly one failure — the 2 % ledger
# sub-check of the benchmark's TestSmoke, which the tracer's own
# bookkeeping exceeds under the race detector (the script says why and
# where the gate belongs). `make test` holds that check.
race:
	GO="$(GO)" scripts/race-test.sh

# vet runs the standard vet checks plus erpcvet, the in-tree check
# that keeps every uintptr(unsafe.Pointer) inline in its syscall
# argument (internal/analysis/syscallptr); a finding exits 1.
vet:
	$(GO) vet ./...
	$(GO) run ./cmd/erpcvet ./...

# test-debug runs the whole suite with the erpcdebug runtime sanitizer
# compiled in (double-put / foreign-put assertions in the transport
# pools, receive-over-held-frame assertions on the UDP receive windows)
# under the race detector — the CI sanitizer leg.
test-debug:
	GO="$(GO)" scripts/race-test.sh -tags erpcdebug

# bench runs the canonical benchmark (benchmark/README.md: results in
# benchmark/out/), then BenchmarkGSOSend, the kernel-side price of the
# batched engine's TX gather copy against iovec pairs (EXPERIMENTS.md,
# "A syscall pays per iovec"), to re-decide it on another kernel, and
# BenchmarkEchoWindow, the core protocol loop's ns per RPC with no
# kernel in the way (EXPERIMENTS.md, "Constant work per packet"),
# beside the paced share its spread follows ("What paces the in-memory
# pair"). The simulator's experiments and the chaos sweep are not
# benchmarks of this host: `make test` holds the first to a recorded file and the
# second to its invariants (internal/experiments: TestSimulatorGolden,
# TestChaosSweepInvariants).
bench:
	$(GO) run ./benchmark
	$(GO) test -run '^$$' -bench BenchmarkGSOSend -benchtime 300x -count 5 ./internal/transport
	$(GO) test -run '^$$' -bench BenchmarkEchoWindow -count 5 ./internal/core

# bench-once runs every Go benchmark of the module once, so one that
# panics, or allocates where it asserts it does not, fails CI instead of
# waiting for the next `make bench`.
bench-once:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# bench-smoke keeps the two park-bound modes from coming back unseen.
# A serial 32 B echo whose paced request waits for a ~1.1 ms timer runs
# at ~1.6 krps on any host, one that leaves at its wheel slot is
# CPU-bound far above 8. 128 echoes outstanding whose requests are each
# charged an MTU of rate queue in the wheel behind a timer and run at
# ~86 krps on any host; charged their own bytes they are CPU-bound far
# above 250 (362 at worst, with 20 % of the guest's CPU withheld).
# bulk_64k's leg checks correctness only: every RPC verified and none
# failed, on the multi-packet path (credits, CR/RFR, GSO runs). It has
# no rate floor: with its backlog left to a timer again it reads
# 0.39-0.54 krps (p75 4.0-5.0 ms), but 0.60-0.92 (3.6-3.8 ms) beside
# busy processes, and leaving on time 1.6-1.7 (1.3 ms) on a quiet host
# but 0.92-1.15 (2.8-3.3 ms) with up to 7 % of the guest's CPU withheld
# and 0.51-0.68 with 18-26 %: no floor tells the two apart there.
# internal/core's TestWaitForWorkKeepsTimeForBacklog does.
bench-smoke:
	$(GO) run ./benchmark -workload echo_w1 -trace 0 -seconds 7 | tail -n 1 | \
		jq -e '.correct and .metrics.rate_krps.value >= 8'
	$(GO) run ./benchmark -workload echo_w128 -trace 0 -seconds 7 | tail -n 1 | \
		jq -e '.correct and .metrics.rate_krps.value >= 250'
	$(GO) run ./benchmark -workload bulk_64k -trace 0 -seconds 7 | tail -n 1 | \
		jq -e '.correct and .failed == 0'

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Short native-fuzzing session on the packet parsers and the burst RX
# path; the seed corpora also run as plain tests in `make test`.
fuzz:
	$(GO) test -fuzz FuzzParseHeader -fuzztime 30s ./internal/wire/
	$(GO) test -fuzz FuzzPktMath -fuzztime 15s ./internal/wire/
	$(GO) test -fuzz FuzzPatchEndpointDelay -fuzztime 15s ./internal/wire/
	$(GO) test -fuzz FuzzProcessPkt -fuzztime 30s ./internal/core/
	$(GO) test -fuzz FuzzRxBurst -fuzztime 30s ./internal/core/
	$(GO) test -fuzz FuzzParseRxCmsgs -fuzztime 15s ./internal/transport/
	$(GO) test -fuzz FuzzSplitRxSegs -fuzztime 15s ./internal/transport/
	$(GO) test -fuzz FuzzRunOrder -fuzztime 15s ./internal/transport/

ci: fmt-check build cross-build vet race test-debug test bench-once bench-smoke
