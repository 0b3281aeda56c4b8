#!/usr/bin/env bash
# sweep_cache_smoke.sh — round trip of mctbench's disk sweep cache.
#
# Runs the quick table4 experiment twice over one -sweep-cache directory.
# The first run must compute its sweep (a non-zero
# experiments.sweeps_computed in its metrics dump); the second must load it
# from disk (no computed sweep in its dump) and print a byte-identical
# report.
set -euo pipefail

cd "$(dirname "$0")/.."

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

go build -o "$WORK/mctbench" ./cmd/mctbench
for run in 1 2; do
    "$WORK/mctbench" -experiment table4 -quick -quiet -sweep-cache "$WORK/cache" \
        -metrics-out "$WORK/metrics$run.json" >"$WORK/report$run.txt" 2>/dev/null
done

cmp "$WORK/report1.txt" "$WORK/report2.txt"
computed='"experiments.sweeps_computed": [1-9]'
if ! grep -q "$computed" "$WORK/metrics1.json"; then
    echo "sweep_cache_smoke: the first run computed no sweep" >&2
    exit 1
fi
if grep -q "$computed" "$WORK/metrics2.json"; then
    echo "sweep_cache_smoke: the second run recomputed a sweep instead of loading it" >&2
    exit 1
fi
echo "sweep_cache_smoke: second run loaded its sweep from disk; reports identical"
