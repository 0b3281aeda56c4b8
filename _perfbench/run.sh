#!/usr/bin/env bash
# Builds the benchmark and the mctd daemon from this checkout, then runs the
# benchmark with the given arguments, e.g.
#
#   bash _perfbench/run.sh --workload sweep --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and run scratch space all stay under
# .bench_build at the checkout root.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD
out="$root/.bench_build"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS= \
	XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
mkdir -p "$out/bin" "$out/tmp"
(cd _perfbench && go build -o "$out/bin/perfbench" . && go build -o "$out/bin/mctd" mct/cmd/mctd)
exec "$out/bin/perfbench" -bin "$out/bin" -work "$out/work" "$@"
