GO ?= go

# Benchmark runs need real parallelism to measure anything: a 1-2 core CI
# runner would silently suppress every parallel arm. GOMAXPROCS is honored by
# the Go runtime even above the core count, so floor it at 4 for all bench
# targets (callers can still override: GOMAXPROCS=8 make bench-service).
GOMAXPROCS ?= 4
BENCH_ENV = GOMAXPROCS=$(GOMAXPROCS)

.PHONY: all build test test-perfbench race bench bench-route bench-sim bench-kernels bench-noise bench-optimize bench-stream bench-service bench-fleet bench-obs fleet serve loadgen lint vet fmt fmt-check bench-json fuzz-rewrite fuzz-stream

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# perfbench is a module of its own (perfbench/go.mod), so the root
# `go test ./...` never reaches it; vet and test it separately.
test-perfbench:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Race-check the concurrent compilation engine, the routers it drives, the
# lazily-built per-device distance oracle they all share, the simulation
# engine's parallel sweeps and trajectory workers, the serving layer's
# cache/singleflight/admission machinery, the persistent artifact store, and
# the fleet proxy's routing/health paths.
race:
	$(GO) test -race ./internal/compiler/... ./internal/route/... ./internal/topo/... ./internal/sim/... ./internal/stab/... ./internal/service/... ./internal/device/... ./internal/store/... ./internal/fleet/... ./internal/experiments/... ./internal/rewrite/... ./internal/template/... ./internal/obs/... ./internal/stream/... ./internal/qasm/...

# Bench smoke: run every benchmark exactly once in short mode so the
# compile-path benchmarks cannot silently rot. Not a timing run: the
# BenchmarkKernelFloor* timing gates skip themselves under -short (see
# bench-kernels).
bench:
	$(BENCH_ENV) $(GO) test -short -run '^$$' -bench . -benchtime 1x ./...

# Routing micro-benchmarks: router end-to-end timings plus old-vs-new path
# machinery (the per-query BFS frozen in topo's legacy_test.go and the
# Dijkstra WeightedPath vs the distance-oracle lookups).
bench-route:
	$(GO) test -run '^$$' -bench 'Router|Distances|ShortestPath|Weighted|Oracle' -benchmem ./internal/route/... ./internal/topo/...

# Every cmd/experiments -bench run writes BENCH_<name>.json, prints its text
# summary, and exits nonzero if the report misses any floor in
# internal/experiments/floors.go, so each target below fails by itself.

# Emit the machine-readable compile-path benchmark for the perf trajectory.
# Floors: serial and parallel drains identical; parallel_speedup measured
# (not suppressed).
bench-json:
	$(BENCH_ENV) $(GO) run ./cmd/experiments -bench compile

# Simulation-engine benchmark: gate-at-a-time kernels vs fused kernels
# (serial + parallel), the serial Monte-Carlo sampler vs the parallel
# trajectory backend, and dense vs stabilizer on a 20-qubit Clifford
# verification.
# Writes BENCH_sim.json and a BENCH_sim.txt summary. (Redirect, not tee: a
# pipe would swallow the benchmark's exit status and let a floor failure pass
# CI.) Floors: parallel paths identical to serial; parallel_speedup measured,
# and >= 1.2 on multi-core hosts.
bench-sim:
	$(BENCH_ENV) $(GO) run ./cmd/experiments -bench sim > BENCH_sim.txt
	cat BENCH_sim.txt

# Kernel floors: Go benchmarks timing the branch-free stochastic router,
# lookahead router and fused dense sweep against their legacy arms, frozen
# beside them in _test.go files (best of 3 each). Writes the go test -bench
# output to BENCH_kernels.txt (redirect, not tee, so a failure fails the
# step). Floors: every new arm identical to its legacy arm; each speedup
# >= 1.2 (minKernelSpeedup in internal/route and internal/sim
# kernelfloor_test.go).
bench-kernels:
	$(BENCH_ENV) $(GO) test -run '^$$' -bench '^BenchmarkKernelFloor' -benchtime 1x ./internal/route ./internal/sim > BENCH_kernels.txt
	cat BENCH_kernels.txt

# Noise-aware sweep: the benchmark suite compiled under per-device
# calibrations with the Uniform vs Noise cost models, evaluated on estimated
# success. Writes BENCH_noise.json and prints the comparison. Floors: mean
# noise-aware success >= mean uniform success; geomean ratio not NaN.
# NOISE_BENCH_FLAGS=-short shrinks it to the CI subset.
bench-noise:
	$(GO) run ./cmd/experiments -bench noise $(NOISE_BENCH_FLAGS)

# Optimizer benchmark: the saturating rewrite engine vs the committed legacy
# cancel-loop counts across the Table-1 grid (every cell statevector-
# verified) plus template-warm cold-compile latency. Writes
# BENCH_optimize.json and a BENCH_optimize.txt summary. Floors: no cell
# above its legacy two-qubit count; saturate_better >= 8; every cell
# equivalent; template_min_speedup >= 1.5. OPT_BENCH_FLAGS=-short shrinks it
# to the CI subset (16 cells, 9 strictly better).
bench-optimize:
	$(BENCH_ENV) $(GO) run ./cmd/experiments -bench optimize $(OPT_BENCH_FLAGS) > BENCH_optimize.txt
	cat BENCH_optimize.txt

# Streaming-compile benchmark: the serial vs channel-pipelined window
# drivers on a generated million-gate Clifford+T stream (bit-identical
# outputs asserted in-run), plus subprocess peak-RSS samples showing memory
# is governed by the window, not the circuit length. Writes
# BENCH_stream.json and a BENCH_stream.txt summary. Floors: streamed output
# equivalent to the monolithic golden arm; peak RSS within the window budget;
# pipeline_vs_serial_speedup >= 1.2 on multi-core hosts.
# STREAM_BENCH_FLAGS=-short shrinks the gate counts for CI.
bench-stream:
	$(BENCH_ENV) $(GO) run ./cmd/experiments -bench stream $(STREAM_BENCH_FLAGS) > BENCH_stream.txt
	cat BENCH_stream.txt

# Streaming-parser fuzz: FuzzStreamParse holds the pull-based QASM reader to
# the in-memory parser gate for gate, with bounded errors on oversized
# statements. The corpus-backed check runs in `make test`; this fuzzes
# beyond it.
fuzz-stream:
	$(GO) test -run '^$$' -fuzz FuzzStreamParse -fuzztime 30s ./internal/qasm/

# Confluence fuzz: random rule-application orders (seeded pop orders) must
# saturate to the same final gate counts. The smoke test runs in `make
# test`; this target fuzzes beyond the checked-in corpus.
fuzz-rewrite:
	$(GO) test -run '^$$' -fuzz FuzzConfluence -fuzztime 30s ./internal/rewrite/

# Run the compile daemon locally (ctrl-c drains gracefully).
serve:
	$(GO) run ./cmd/triosd

# Drive a running daemon with the standard benchmark mix.
loadgen:
	$(GO) run ./cmd/loadgen

# Serving benchmark: build triosd + loadgen, serve on a local port, replay
# the standard mix closed-loop, and write BENCH_service.json (throughput,
# latency quantiles, cache hit rate). TRIOSD_RACE=-race instruments the
# daemon for the CI smoke.
bench-service:
	$(BENCH_ENV) sh scripts/bench_service.sh

# Fleet benchmark: 3 triosd replicas (each with a persistent artifact store)
# behind the triosfleet consistent-hash proxy. Measures single-vs-fleet
# throughput, kills a replica mid-run, then restarts everything and asserts
# the warm-restart hit rate. Writes BENCH_fleet.json. TRIOSD_RACE=-race
# instruments the daemons for the CI smoke; FLEET_MIN_SPEEDUP tightens the
# scaling floor.
bench-fleet:
	$(BENCH_ENV) sh scripts/bench_fleet.sh

# Observability-cost benchmark: serve the same daemon with tracing off, then
# on (the default), drive the identical mix against each, and write
# BENCH_obs.json with tracing_on_vs_off_ratio. loadgen fails the run if
# tracing costs more than 5% of throughput, the trace ring comes back empty,
# the on phase recorded no traced requests, or the off phase recorded any.
# TRIOSD_RACE=-race instruments the daemon for the CI smoke.
bench-obs:
	$(BENCH_ENV) sh scripts/bench_obs.sh

# Run a local 3-replica fleet behind the proxy until ctrl-c (no benchmark).
fleet:
	FLEET_HOLD=1 sh scripts/bench_fleet.sh

vet:
	$(GO) vet ./...

fmt:
	gofmt -l -w .

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

lint: vet fmt-check
