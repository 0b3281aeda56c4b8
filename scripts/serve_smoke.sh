#!/usr/bin/env bash
# serve_smoke.sh — end-to-end smoke test of the mctd job-server daemon.
#
# Proves the two serving-layer contracts the unit tests can't cover from
# inside one process:
#
#  1. CLI/daemon parity: a sweep job submitted over HTTP produces an artifact
#     byte-identical to `mct -job` on the same spec.
#  2. Crash resume: kill -9 on the daemon mid-evaluate-job, then a restart on
#     the same state directory, resumes from the last checkpoint and still
#     produces a byte-identical artifact (Resumes count >= 1 proves the
#     resumed path actually ran).
#
# Stdlib tooling only: JSON field extraction uses sed, polling uses curl.
set -euo pipefail

cd "$(dirname "$0")/.."

WORK=$(mktemp -d)
BIN="$WORK/bin"
STATE="$WORK/state"
mkdir -p "$BIN"

MCTD_PID=""
cleanup() {
    [ -n "$MCTD_PID" ] && kill "$MCTD_PID" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT

say() { echo "serve-smoke: $*"; }
die() { echo "serve-smoke: FAIL: $*" >&2; exit 1; }

# json_field DOC KEY -> the string/number value of a top-level "key": entry.
json_field() {
    echo "$1" | sed -n "s/.*\"$2\": *\"\{0,1\}\([^\",}]*\)\"\{0,1\}.*/\1/p" | head -1
}

say "building mct and mctd"
go build -o "$BIN/mct" ./cmd/mct
go build -o "$BIN/mctd" ./cmd/mctd

start_mctd() {
    rm -f "$STATE/mctd.addr" # a stale address file would short-circuit the readiness poll
    "$BIN/mctd" -addr 127.0.0.1:0 -state "$STATE" "$@" \
        > "$WORK/mctd.log" 2>&1 &
    MCTD_PID=$!
    for _ in $(seq 1 50); do
        [ -s "$STATE/mctd.addr" ] && break
        kill -0 "$MCTD_PID" 2>/dev/null || { cat "$WORK/mctd.log" >&2; die "mctd died on startup"; }
        sleep 0.1
    done
    ADDR=$(head -1 "$STATE/mctd.addr")
    URL="http://$ADDR"
    curl -fsS "$URL/healthz" > /dev/null || die "healthz not responding"
}

# submit SPEC_FILE -> job ID
submit() {
    local resp
    resp=$(curl -fsS -X POST -H 'X-MCT-Client: smoke' --data-binary @"$1" "$URL/v1/jobs") \
        || die "submit $1 rejected"
    json_field "$resp" id
}

# wait_state ID WANT_STATE TRIES
wait_state() {
    local st
    for _ in $(seq 1 "$3"); do
        st=$(json_field "$(curl -fsS "$URL/v1/jobs/$1")" state)
        case "$st" in
            "$2") return 0 ;;
            failed) curl -fsS "$URL/v1/jobs/$1" >&2; die "job $1 failed" ;;
        esac
        sleep 0.2
    done
    die "job $1 stuck (last state: $st, want $2)"
}

# --- phase 1: CLI/daemon sweep parity --------------------------------------

cat > "$WORK/sweep.json" <<'EOF'
{
  "v": 1,
  "kind": "sweep",
  "benchmark": "lbm",
  "accesses": 2000,
  "stride": 100
}
EOF

say "starting mctd"
start_mctd
say "daemon at $URL"

say "submitting sweep job"
SWEEP_ID=$(submit "$WORK/sweep.json")
[ -n "$SWEEP_ID" ] || die "no job ID in submit response"
wait_state "$SWEEP_ID" done 300

curl -fsS "$URL/v1/jobs/$SWEEP_ID/artifact" > "$WORK/sweep-daemon.json"
say "running the same spec through mct -job"
"$BIN/mct" -job "$WORK/sweep.json" -job-out "$WORK/sweep-cli.json"
cmp "$WORK/sweep-daemon.json" "$WORK/sweep-cli.json" \
    || die "daemon sweep artifact differs from mct -job output"
say "sweep artifacts byte-identical"

# The SSE stream of a finished job must deliver its terminal frame.
EVENTS=$(curl -fsS --max-time 10 "$URL/v1/jobs/$SWEEP_ID/events")
echo "$EVENTS" | grep -q '"text":"done"' || die "SSE stream missing terminal done frame: $EVENTS"

curl -fsS "$URL/metrics" | grep -q 'server.jobs_completed' \
    || die "/metrics missing server.jobs_completed"
say "metrics and SSE verified"

# --- phase 2: kill -9 mid-job, restart, resume -----------------------------

# The job spans 100 of the daemon's 1M-instruction checkpoint chunks, so it
# is still running when the polls below see it running and find its first
# checkpoint; at a few chunks it can finish between two polls.
cat > "$WORK/eval.json" <<'EOF'
{
  "v": 1,
  "kind": "evaluate",
  "benchmark": "stream",
  "insts": 100000000,
  "config": {
    "v": 1,
    "bank_aware": true,
    "bank_aware_threshold": 1,
    "eager_writebacks": true,
    "eager_threshold": 32,
    "wear_quota": true,
    "wear_quota_target": 8,
    "fast_latency": 1,
    "slow_latency": 3,
    "fast_cancellation": false,
    "slow_cancellation": true
  }
}
EOF

say "submitting evaluate job, then kill -9 once it has a checkpoint"
EVAL_ID=$(submit "$WORK/eval.json")
wait_state "$EVAL_ID" running 100
CKPT="$STATE/jobs/$EVAL_ID/machine.ckpt"
for _ in $(seq 1 300); do
    [ -s "$CKPT" ] && break
    sleep 0.1
done
[ -s "$CKPT" ] || die "no machine checkpoint appeared for $EVAL_ID"

kill -9 "$MCTD_PID"
wait "$MCTD_PID" 2>/dev/null || true
MCTD_PID=""
say "daemon killed with checkpoint on disk; restarting on the same state"

start_mctd
STATUS=$(curl -fsS "$URL/v1/jobs/$EVAL_ID")
RESUMES=$(json_field "$STATUS" resumes)
[ -n "$RESUMES" ] && [ "$RESUMES" -ge 1 ] \
    || die "restarted job does not record a resume: $STATUS"
say "job re-adopted (resumes=$RESUMES); waiting for completion"
wait_state "$EVAL_ID" done 600

curl -fsS "$URL/v1/jobs/$EVAL_ID/artifact" > "$WORK/eval-daemon.json"
say "running the same spec uninterrupted through mct -job"
"$BIN/mct" -job "$WORK/eval.json" -job-out "$WORK/eval-cli.json"
cmp "$WORK/eval-daemon.json" "$WORK/eval-cli.json" \
    || die "resumed artifact differs from uninterrupted mct -job output"
say "kill -9 resume artifact byte-identical to uninterrupted run"

say "PASS"
