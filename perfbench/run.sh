#!/usr/bin/env bash
# Builds perfbench from source and runs it. Run from the root of a checkout:
#
#   bash perfbench/run.sh --workload serve-hit --seed 1 --seconds 20 --trace 0
#
# The build cache, the binary and the run records stay under .bench_build in
# the checkout. The last line of standard output is the JSON result.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -out "$out/perfbench-runs" "$@"
