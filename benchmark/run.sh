#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout it is run from
# and runs it: bash benchmark/run.sh --workload echo_w1 --seed 1 --seconds 35 --trace 0
# Build outputs, the Go build cache, GOPATH and the go command's own
# config (XDG_CONFIG_HOME) stay under .bench_build/.
set -euo pipefail
cd "$(dirname "$0")/.."
# Without the module there is nothing to build; say so before any go
# command runs.
if [ ! -f go.mod ] || [ ! -d erpc ]; then
	echo "benchmark/run.sh: $PWD holds no go.mod and erpc/: the program to measure is not here" >&2
	exit 2
fi
build="$PWD/.bench_build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=
# In its default "local" mode the go command forks a detached telemetry
# child on the first use of a fresh config dir, and that child can outlive
# this script. The mode file is the only switch (GOTELEMETRY is read-only).
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"
go build -o "$build/erpc-benchmark" ./benchmark
exec "$build/erpc-benchmark" "$@"
