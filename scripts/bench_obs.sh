#!/bin/sh
# bench_obs.sh — measure the cost of tracing: serve the same triosd twice
# (once with -trace=false, once with tracing on), drive the identical
# closed-loop mix against each, and merge the two runs into BENCH_obs.json as
# phases "obs-off" and "obs-on". The on-phase run also fetches /debug/traces
# and fails unless a non-empty slowest trace was retained, then asserts
# tracing_on_vs_off_ratio >= 0.95 (tracing may cost at most 5% of
# throughput), that the on phase recorded traced requests and a slowest
# trace, and that the off phase recorded none. Used by `make bench-obs` and
# the CI serving-smoke job.
#
# Environment knobs:
#   GO                  go binary (default: go)
#   TRIOSD_ADDR         listen address (default: 127.0.0.1:8423)
#   TRIOSD_RACE         set to "-race" to race-instrument the daemon
#   OBS_DURATION        load duration per phase (default: 5s)
#   OBS_WARMUP          unmeasured warmup per phase (default: 2s)
#   OBS_CONCURRENCY     closed-loop workers (default: 8)
#   OBS_OUT             report path (default: BENCH_obs.json)
set -eu

# Parallelism floor: mirror the Makefile's `GOMAXPROCS ?= 4` and export it,
# so a standalone run measures the same serving parallelism as
# `make bench-obs`. Callers can still override.
GOMAXPROCS=${GOMAXPROCS:-4}
export GOMAXPROCS

GO=${GO:-go}
ADDR=${TRIOSD_ADDR:-127.0.0.1:8423}
DUR=${OBS_DURATION:-5s}
WARMUP=${OBS_WARMUP:-2s}
CONC=${OBS_CONCURRENCY:-8}
OUT=${OBS_OUT:-BENCH_obs.json}
RACE=${TRIOSD_RACE:-}

bindir=$(mktemp -d)
pid=""
cleanup() {
    [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
    rm -rf "$bindir"
}
trap cleanup EXIT INT TERM

# shellcheck disable=SC2086 # RACE is intentionally word-split ("-race" or empty)
$GO build $RACE -o "$bindir/triosd" ./cmd/triosd
$GO build -o "$bindir/loadgen" ./cmd/loadgen

# A stale report would let phase throughputs from different commits be
# compared against each other.
rm -f "$OUT"

wait_healthy() {
    i=0
    while [ $i -lt 50 ]; do
        if "$bindir/loadgen" -addr "http://$ADDR" -ping 2>/dev/null; then
            return 0
        fi
        i=$((i + 1))
        sleep 0.2
    done
    echo "bench_obs: triosd did not become healthy on $ADDR" >&2
    exit 1
}

stop_daemon() {
    kill -TERM "$pid"
    wait "$pid"
    pid=""
}

# Phase 1: tracing off — the throughput baseline.
"$bindir/triosd" -addr "$ADDR" -trace=false &
pid=$!
wait_healthy
"$bindir/loadgen" -addr "http://$ADDR" -duration "$WARMUP" -concurrency "$CONC" -out ""
"$bindir/loadgen" -addr "http://$ADDR" -duration "$DUR" -concurrency "$CONC" \
    -phase obs-off -out "$OUT"
stop_daemon

# Phase 2: tracing on (the default) — same mix, same daemon config otherwise.
# -check-traces asserts the ring retained a slowest trace, -min-tracing-ratio
# asserts the throughput cost against the obs-off phase just written and that
# only the on phase was traced.
"$bindir/triosd" -addr "$ADDR" &
pid=$!
wait_healthy
"$bindir/loadgen" -addr "http://$ADDR" -duration "$WARMUP" -concurrency "$CONC" -out ""
"$bindir/loadgen" -addr "http://$ADDR" -duration "$DUR" -concurrency "$CONC" \
    -phase obs-on -out "$OUT" -check-traces -min-tracing-ratio 0.95
stop_daemon

echo "bench_obs: wrote $OUT"
