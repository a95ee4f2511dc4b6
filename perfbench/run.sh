#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it with
# the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload halo-reduce --seed 1 --seconds 15 --trace 0
#
# Everything the build writes (binary, Go build cache, temporary files)
# stays under .bench_build/ in the checkout.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
