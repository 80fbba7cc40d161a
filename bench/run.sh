#!/usr/bin/env bash
# Builds and runs offnetbench from the root of an offnetscope checkout:
#
#   bash bench/run.sh --workload study-disk --seed 1 --seconds 10 --trace 0
#   bash bench/run.sh --seed 2                       # all four workloads
#   bash bench/run.sh --compare parent.jsonl change.jsonl
#
# The Go build cache, the binaries, the generated inputs and the results
# all stay under .bench_build/ in the checkout. The benchmark is its own
# Go module (bench/go.mod) that builds against the checkout's source, so
# outside a full checkout the build fails and nothing is measured.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/bin"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off GOWORK=off

go build -C bench -o "$build/bin/offnetbench" ./offnetbench
exec "$build/bin/offnetbench" "$@"
