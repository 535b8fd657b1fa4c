#!/usr/bin/env bash
# Builds mcservd and the benchmark from source, then runs one benchmark
# workload. Run it from the repository root:
#
#   bash mcbench/run.sh --workload sweep --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# repository: binaries, the Go build cache, daemon spools and the exact
# counts each seed is checked against on later runs.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly

go build -o "$out/bin/mcservd" ./cmd/mcservd
(cd mcbench && go build -o "$out/bin/mcbench" .)
exec "$out/bin/mcbench" --mcservd "$out/bin/mcservd" --dir "$out/run" --state "$out/state" "$@"
