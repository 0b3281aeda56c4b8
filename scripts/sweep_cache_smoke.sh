#!/usr/bin/env bash
# sweep_cache_smoke.sh — round trip of mctbench's disk sweep cache.
#
# Runs the quick table4 experiment twice over one -sweep-cache directory.
# The first run must compute its sweep (a non-zero
# experiments.sweeps_computed in its metrics dump); the second must load it
# from disk (no computed sweep in its dump) and print a byte-identical
# report. A third run computes the same sweeps into a second, fresh
# directory, and every entry must be byte-identical to the first
# directory's.
set -euo pipefail

cd "$(dirname "$0")/.."

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

go build -o "$WORK/mctbench" ./cmd/mctbench
for run in 1 2 3; do
    cache="$WORK/cache"
    if [ "$run" = 3 ]; then cache="$WORK/cache2"; fi
    "$WORK/mctbench" -experiment table4 -quick -quiet -sweep-cache "$cache" \
        -metrics-out "$WORK/metrics$run.json" >"$WORK/report$run.txt" 2>/dev/null
done

cmp "$WORK/report1.txt" "$WORK/report2.txt"
cmp "$WORK/report1.txt" "$WORK/report3.txt"
computed='"experiments.sweeps_computed": [1-9]'
if ! grep -q "$computed" "$WORK/metrics1.json"; then
    echo "sweep_cache_smoke: the first run computed no sweep" >&2
    exit 1
fi
if grep -q "$computed" "$WORK/metrics2.json"; then
    echo "sweep_cache_smoke: the second run recomputed a sweep instead of loading it" >&2
    exit 1
fi
entries=0
for f in "$WORK/cache"/*; do
    cmp "$f" "$WORK/cache2/$(basename "$f")"
    entries=$((entries + 1))
done
if [ "$entries" = 0 ] || [ "$(ls "$WORK/cache2" | wc -l)" != "$entries" ]; then
    echo "sweep_cache_smoke: the two cache directories hold different entries" >&2
    exit 1
fi
echo "sweep_cache_smoke: second run loaded its sweep from disk; reports identical; $entries entries byte-identical across two fresh directories"
