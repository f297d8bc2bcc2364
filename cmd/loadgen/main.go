// Command loadgen is a closed-loop load generator for triosd and triosfleet:
// -concurrency workers each keep exactly one request in flight, replaying a
// benchmark mix round-robin against POST /v1/compile until -duration (or
// -requests) elapses, then report throughput, latency quantiles, per-status
// counts, the cache hit rate observed via the X-Trios-Cache response header
// (disk-tier hits included), and — when driving a fleet — the per-replica
// request counts observed via X-Trios-Replica. The machine-readable report
// lands in -out (BENCH_service.json).
//
// With -phase NAME the report is instead merged into a fleet benchmark file
// (default BENCH_fleet.json) under phases.NAME, and the derived fleet
// metrics are recomputed from the phases present: fleet_vs_single_speedup
// from phases "fleet" and "single", warm_restart_hit_rate from phase "warm",
// tracing_on_vs_off_ratio from phases "obs-on" and "obs-off". The
// -min-hit-rate, -min-disk-hits, -min-speedup, and -min-tracing-ratio flags
// turn the run into an assertion, for CI; -min-tracing-ratio also requires
// the obs-on phase to be traced and the obs-off phase not.
//
// Tracing-aware runs: each response's X-Trios-Trace is recorded, the report
// carries the trace ID of the slowest observed request (slowest_trace, for
// cross-referencing with GET /debug/traces), and -check-traces asserts after
// the run that the daemon's trace ring retained a non-empty slowest trace.
//
// Usage:
//
//	loadgen -addr http://127.0.0.1:8421 -concurrency 8 -duration 10s -out BENCH_service.json
//	loadgen -addr http://127.0.0.1:8420 -phase fleet -out BENCH_fleet.json
//	loadgen -addr http://127.0.0.1:8421 -ping   # healthz probe, for scripts
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"trios/internal/benchmarks"
	"trios/internal/obs"
	"trios/internal/service"
	"trios/internal/version"
)

// options is the parsed flag set for one load run.
type options struct {
	addr        string
	concurrency int
	duration    time.Duration
	requests    int
	mix         string
	pipelines   string
	topology    string
	seed        int64
	seeds       string
	out         string
	phase       string
	minHitRate  float64
	minDiskHits int
	minSpeedup  float64

	minTracingRatio float64
	checkTraces     bool

	// Streaming mode: when streamGates > 0 the workers drive POST
	// /v1/compile/stream with generated QASM streams instead of replaying
	// the JSON benchmark mix.
	streamGates  int
	streamKind   string
	streamQubits int
	streamWindow int
}

func main() {
	var opts options
	flag.StringVar(&opts.addr, "addr", "http://127.0.0.1:8421", "triosd or triosfleet base URL")
	flag.IntVar(&opts.concurrency, "concurrency", 8, "workers, each with one request in flight")
	flag.DurationVar(&opts.duration, "duration", 10*time.Second, "how long to drive load")
	flag.IntVar(&opts.requests, "requests", 0, "stop after this many requests (0 = duration only)")
	flag.StringVar(&opts.mix, "mix", "bv-20,qft_adder-16,qaoa_complete-10,cnx_dirty-11,grovers-9", "comma-separated benchmark names to replay")
	flag.StringVar(&opts.pipelines, "pipelines", "baseline,trios", "comma-separated pipelines crossed with the mix")
	flag.StringVar(&opts.topology, "topology", "johannesburg", "target device for every request")
	flag.Int64Var(&opts.seed, "seed", 1, "compile seed (constant across the run, so repeats hit the cache)")
	flag.StringVar(&opts.seeds, "seeds", "", "comma-separated seed list crossed with the mix (overrides -seed; widens the distinct-key set for fleet sharding)")
	flag.StringVar(&opts.out, "out", "BENCH_service.json", "write the JSON report here ('' = stdout only)")
	flag.StringVar(&opts.phase, "phase", "", "merge the report into a fleet benchmark file under phases.NAME instead of overwriting -out")
	flag.Float64Var(&opts.minHitRate, "min-hit-rate", -1, "fail unless this run's cache hit rate (disk hits included) reaches this fraction")
	flag.IntVar(&opts.minDiskHits, "min-disk-hits", -1, "fail unless this run observed at least this many disk-tier (hit-disk) responses")
	flag.Float64Var(&opts.minSpeedup, "min-speedup", -1, "fail unless fleet_vs_single_speedup (needs phases fleet and single) reaches this")
	flag.Float64Var(&opts.minTracingRatio, "min-tracing-ratio", -1, "fail unless tracing_on_vs_off_ratio (needs phases obs-on and obs-off) reaches this, obs-on recorded traced requests and a slowest trace, and obs-off recorded none")
	flag.BoolVar(&opts.checkTraces, "check-traces", false, "after the run, fetch /debug/traces and fail unless a non-empty slowest trace was retained")
	flag.IntVar(&opts.streamGates, "stream-gates", 0, "drive POST /v1/compile/stream with generated circuits of this many gates instead of the JSON mix (0 = off)")
	flag.StringVar(&opts.streamKind, "stream-kind", "cliffordt", "generated stream workload: qaoa or cliffordt (with -stream-gates)")
	flag.IntVar(&opts.streamQubits, "stream-qubits", 16, "qubit count of generated streams (with -stream-gates)")
	flag.IntVar(&opts.streamWindow, "stream-window", 0, "per-request ?window=N override for streaming requests (0 = server default)")
	ping := flag.Bool("ping", false, "probe GET /healthz and exit 0 when the daemon is up")
	showVersion := flag.Bool("version", false, "print build version and exit")
	flag.Parse()
	if *showVersion {
		fmt.Println(version.Get())
		return
	}
	if *ping {
		if err := pingHealthz(opts.addr); err != nil {
			fmt.Fprintln(os.Stderr, "loadgen:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(opts); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

func pingHealthz(addr string) error {
	client := &http.Client{Timeout: 2 * time.Second}
	resp, err := client.Get(strings.TrimSuffix(addr, "/") + "/healthz")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz returned %d", resp.StatusCode)
	}
	return nil
}

// sample is one completed request.
type sample struct {
	latency time.Duration
	status  int
	cache   string // X-Trios-Cache: hit | hit-disk | miss | coalesced (2xx only)
	replica string // X-Trios-Replica when a fleet proxy answered
	trace   string // X-Trios-Trace when the daemon traces requests
	// retryAfter is the admission backoff on a 429 (Retry-After header,
	// floored at 100ms); stream workers wait it out and resubmit.
	retryAfter time.Duration
}

// Report is the per-run schema: BENCH_service.json, or one phase of
// BENCH_fleet.json.
type Report struct {
	Config struct {
		Addr        string   `json:"addr"`
		Concurrency int      `json:"concurrency"`
		Mix         []string `json:"mix"`
		Pipelines   []string `json:"pipelines"`
		Topology    string   `json:"topology"`
		Seed        int64    `json:"seed"`
		Seeds       []int64  `json:"seeds,omitempty"`
		// DistinctBodies is the number of distinct request bodies (= distinct
		// cache keys) the mix replays.
		DistinctBodies int `json:"distinct_bodies"`
	} `json:"config"`
	// GOMAXPROCS and EffectiveWorkers record the parallelism this run
	// actually had, so a report from a throttled environment is legible.
	GOMAXPROCS       int            `json:"gomaxprocs"`
	EffectiveWorkers int            `json:"effective_workers"`
	DurationSeconds  float64        `json:"duration_seconds"`
	Requests         int            `json:"requests"`
	Errors           int            `json:"errors"`
	StatusCounts     map[string]int `json:"status_counts"`
	ThroughputRPS    float64        `json:"throughput_rps"`
	LatencyMS        struct {
		P50  float64 `json:"p50"`
		P95  float64 `json:"p95"`
		P99  float64 `json:"p99"`
		Mean float64 `json:"mean"`
		Max  float64 `json:"max"`
	} `json:"latency_ms"`
	Cache struct {
		Hits      int `json:"hits"`
		DiskHits  int `json:"disk_hits"`
		Misses    int `json:"misses"`
		Coalesced int `json:"coalesced"`
		// HitRate counts both cache tiers: (hits + disk_hits) / decided.
		HitRate float64 `json:"hit_rate"`
	} `json:"cache"`
	// Replicas maps replica name -> requests it answered (fleet runs only).
	Replicas map[string]int `json:"replicas,omitempty"`
	// TracedRequests counts 2xx responses that carried X-Trios-Trace;
	// SlowestTrace is the trace ID of the slowest such response, for
	// cross-referencing with GET /debug/traces on the daemon.
	TracedRequests int    `json:"traced_requests,omitempty"`
	SlowestTrace   string `json:"slowest_trace,omitempty"`
}

// FleetReport is the BENCH_fleet.json schema: one Report per named phase plus
// metrics derived across phases.
type FleetReport struct {
	Phases map[string]*Report `json:"phases"`
	// FleetVsSingleSpeedup = phases.fleet.throughput / phases.single.throughput.
	FleetVsSingleSpeedup float64 `json:"fleet_vs_single_speedup,omitempty"`
	// WarmRestartHitRate = phases.warm.cache.hit_rate.
	WarmRestartHitRate float64 `json:"warm_restart_hit_rate,omitempty"`
	// TracingOnVsOffRatio = phases.obs-on.throughput / phases.obs-off.throughput:
	// the fraction of throughput retained with tracing enabled (1.0 = free).
	TracingOnVsOffRatio float64 `json:"tracing_on_vs_off_ratio,omitempty"`
}

func run(opts options) error {
	if opts.concurrency < 1 {
		return fmt.Errorf("concurrency must be >= 1")
	}
	if opts.streamGates > 0 {
		return runStream(opts)
	}
	benches := splitList(opts.mix)
	pipes := splitList(opts.pipelines)
	if len(benches) == 0 || len(pipes) == 0 {
		return fmt.Errorf("empty -mix or -pipelines")
	}
	seeds := []int64{opts.seed}
	if opts.seeds != "" {
		seeds = seeds[:0]
		for _, s := range splitList(opts.seeds) {
			var v int64
			if _, err := fmt.Sscanf(s, "%d", &v); err != nil {
				return fmt.Errorf("bad -seeds entry %q", s)
			}
			seeds = append(seeds, v)
		}
	}
	var bodies [][]byte
	for _, b := range benches {
		for _, p := range pipes {
			for i := range seeds {
				req := service.CompileRequest{Benchmark: b, Topology: opts.topology, Pipeline: p, Seed: &seeds[i]}
				body, err := json.Marshal(req)
				if err != nil {
					return err
				}
				bodies = append(bodies, body)
			}
		}
	}

	url := strings.TrimSuffix(opts.addr, "/") + "/v1/compile"
	client := &http.Client{Timeout: 60 * time.Second}
	ctx, cancel := context.WithTimeout(context.Background(), opts.duration)
	defer cancel()

	var next atomic.Int64
	var wg sync.WaitGroup
	perWorker := make([][]sample, opts.concurrency)
	start := time.Now()
	for w := 0; w < opts.concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for ctx.Err() == nil {
				i := next.Add(1) - 1
				if opts.requests > 0 && i >= int64(opts.requests) {
					return
				}
				body := bodies[i%int64(len(bodies))]
				s, err := shoot(ctx, client, url, body)
				if err != nil {
					if ctx.Err() != nil {
						return
					}
					s = sample{status: 0}
				}
				perWorker[w] = append(perWorker[w], s)
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var all []sample
	for _, s := range perWorker {
		all = append(all, s...)
	}
	if len(all) == 0 {
		return fmt.Errorf("no requests completed; is triosd running at %s?", opts.addr)
	}
	rep := summarize(all, elapsed)
	rep.Config.Addr = opts.addr
	rep.Config.Concurrency = opts.concurrency
	rep.Config.Mix = benches
	rep.Config.Pipelines = pipes
	rep.Config.Topology = opts.topology
	rep.Config.Seed = opts.seed
	if opts.seeds != "" {
		rep.Config.Seeds = seeds
	}
	rep.Config.DistinctBodies = len(bodies)
	rep.GOMAXPROCS = runtime.GOMAXPROCS(0)
	rep.EffectiveWorkers = opts.concurrency

	var fleetRep *FleetReport
	if opts.phase != "" {
		var err error
		if fleetRep, err = mergePhase(opts.out, opts.phase, rep); err != nil {
			return err
		}
	} else if opts.out != "" {
		enc, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(opts.out, append(enc, '\n'), 0o644); err != nil {
			return err
		}
	}

	fmt.Printf("loadgen: %d requests in %.2fs  %.1f req/s  p50 %.2fms  p95 %.2fms  p99 %.2fms  hit rate %.1f%% (%d disk)  errors %d\n",
		rep.Requests, rep.DurationSeconds, rep.ThroughputRPS,
		rep.LatencyMS.P50, rep.LatencyMS.P95, rep.LatencyMS.P99,
		100*rep.Cache.HitRate, rep.Cache.DiskHits, rep.Errors)
	if len(rep.Replicas) > 0 {
		parts := make([]string, 0, len(rep.Replicas))
		for _, name := range sortedKeys(rep.Replicas) {
			parts = append(parts, fmt.Sprintf("%s=%d", name, rep.Replicas[name]))
		}
		fmt.Printf("loadgen: replicas %s\n", strings.Join(parts, " "))
	}
	if opts.out != "" {
		if opts.phase != "" {
			fmt.Printf("loadgen: merged phase %q into %s\n", opts.phase, opts.out)
		} else {
			fmt.Printf("loadgen: wrote %s\n", opts.out)
		}
	}

	if rep.SlowestTrace != "" {
		fmt.Printf("loadgen: %d/%d responses traced, slowest trace %s\n",
			rep.TracedRequests, rep.Requests-rep.Errors, rep.SlowestTrace)
	}

	if float64(rep.Errors) > 0.01*float64(rep.Requests) {
		return fmt.Errorf("error rate %.1f%% exceeds 1%%", 100*float64(rep.Errors)/float64(rep.Requests))
	}
	if opts.checkTraces {
		if err := checkDebugTraces(opts.addr); err != nil {
			return err
		}
	}
	return assert(opts, rep, fleetRep)
}

// runStream is the -stream-gates mode: each worker posts a freshly generated
// QASM stream (distinct seed per request, so every compile is distinct work)
// to /v1/compile/stream and drains the chunked response. The cache is
// bypassed by the endpoint, so the report's hit rate is structurally zero;
// throughput and latency are the signal.
func runStream(opts options) error {
	var gen func(n, gates int, seed int64) io.Reader
	switch opts.streamKind {
	case "qaoa":
		gen = benchmarks.StreamQAOA
	case "cliffordt":
		gen = benchmarks.StreamCliffordT
	default:
		return fmt.Errorf("unknown -stream-kind %q (want qaoa or cliffordt)", opts.streamKind)
	}
	pipes := splitList(opts.pipelines)
	if len(pipes) == 0 {
		return fmt.Errorf("empty -pipelines")
	}
	base := strings.TrimSuffix(opts.addr, "/") + "/v1/compile/stream"
	client := &http.Client{Timeout: 10 * time.Minute} // a stream holds its connection for the whole compile
	ctx, cancel := context.WithTimeout(context.Background(), opts.duration)
	defer cancel()

	var next atomic.Int64
	var wg sync.WaitGroup
	perWorker := make([][]sample, opts.concurrency)
	start := time.Now()
	for w := 0; w < opts.concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for ctx.Err() == nil {
				i := next.Add(1) - 1
				if opts.requests > 0 && i >= int64(opts.requests) {
					return
				}
				q := url.Values{}
				q.Set("topology", opts.topology)
				q.Set("pipeline", pipes[i%int64(len(pipes))])
				q.Set("seed", fmt.Sprintf("%d", opts.seed))
				if opts.streamWindow > 0 {
					q.Set("window", fmt.Sprintf("%d", opts.streamWindow))
				}
				// Streams bypass the daemon's job queue and are admitted
				// against the worker budget directly, so a closed-loop
				// harness with more workers than the daemon sees 429 +
				// Retry-After. Honor it like a real client: back off and
				// regenerate the body (the reader was consumed).
				var s sample
				for {
					var err error
					body := gen(opts.streamQubits, opts.streamGates, opts.seed+i)
					s, err = shootStream(ctx, client, base+"?"+q.Encode(), body)
					if err != nil {
						if ctx.Err() != nil {
							return
						}
						s = sample{status: 0}
					}
					if s.status != http.StatusTooManyRequests {
						break
					}
					select {
					case <-ctx.Done():
						return
					case <-time.After(s.retryAfter):
					}
				}
				perWorker[w] = append(perWorker[w], s)
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var all []sample
	for _, s := range perWorker {
		all = append(all, s...)
	}
	if len(all) == 0 {
		return fmt.Errorf("no requests completed; is triosd running at %s?", opts.addr)
	}
	rep := summarize(all, elapsed)
	rep.Config.Addr = opts.addr
	rep.Config.Concurrency = opts.concurrency
	rep.Config.Mix = []string{fmt.Sprintf("stream:%s-%dq-%dg", opts.streamKind, opts.streamQubits, opts.streamGates)}
	rep.Config.Pipelines = pipes
	rep.Config.Topology = opts.topology
	rep.Config.Seed = opts.seed
	rep.Config.DistinctBodies = rep.Requests // every stream is a distinct seed
	rep.GOMAXPROCS = runtime.GOMAXPROCS(0)
	rep.EffectiveWorkers = opts.concurrency

	var fleetRep *FleetReport
	if opts.phase != "" {
		var err error
		if fleetRep, err = mergePhase(opts.out, opts.phase, rep); err != nil {
			return err
		}
	} else if opts.out != "" {
		enc, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(opts.out, append(enc, '\n'), 0o644); err != nil {
			return err
		}
	}
	fmt.Printf("loadgen: %d streams (%d gates each) in %.2fs  %.2f streams/s  p50 %.0fms  p95 %.0fms  errors %d\n",
		rep.Requests, opts.streamGates, rep.DurationSeconds, rep.ThroughputRPS,
		rep.LatencyMS.P50, rep.LatencyMS.P95, rep.Errors)
	if opts.out != "" {
		fmt.Printf("loadgen: wrote %s\n", opts.out)
	}
	if float64(rep.Errors) > 0.01*float64(rep.Requests) {
		return fmt.Errorf("error rate %.1f%% exceeds 1%%", 100*float64(rep.Errors)/float64(rep.Requests))
	}
	return assert(opts, rep, fleetRep)
}

// shootStream posts one generated stream and drains the chunked response,
// requiring the stats trailer that marks a complete, successful compile.
func shootStream(ctx context.Context, client *http.Client, url string, body io.Reader) (sample, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, body)
	if err != nil {
		return sample{}, err
	}
	req.Header.Set("Content-Type", "text/plain")
	start := time.Now()
	resp, err := client.Do(req)
	if err != nil {
		return sample{}, err
	}
	defer resp.Body.Close()
	// Drain while keeping a rolling 64 KiB tail: the trailer on the last
	// line decides success.
	const keep = 64 << 10
	var tail []byte
	buf := make([]byte, keep)
	for {
		n, rerr := resp.Body.Read(buf)
		if n > 0 {
			tail = append(tail, buf[:n]...)
			if len(tail) > keep {
				copy(tail, tail[len(tail)-keep:])
				tail = tail[:keep]
			}
		}
		if rerr != nil {
			break
		}
	}
	s := sample{
		latency:    time.Since(start),
		status:     resp.StatusCode,
		cache:      resp.Header.Get("X-Trios-Cache"),
		replica:    resp.Header.Get("X-Trios-Replica"),
		trace:      resp.Header.Get(obs.TraceHeader),
		retryAfter: 100 * time.Millisecond,
	}
	if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
		s.retryAfter = time.Duration(secs) * time.Second
	}
	if s.status == http.StatusOK && !bytes.Contains(tail, []byte("// trios-stream: ")) {
		s.status = 0 // 200 without a trailer is a failed or truncated stream
	}
	return s, nil
}

// mergePhase folds rep into the FleetReport at path under phases[name],
// recomputes the cross-phase metrics, and writes the file back.
func mergePhase(path, name string, rep *Report) (*FleetReport, error) {
	fleet := &FleetReport{Phases: make(map[string]*Report)}
	if path != "" {
		if raw, err := os.ReadFile(path); err == nil {
			if err := json.Unmarshal(raw, fleet); err != nil {
				return nil, fmt.Errorf("existing %s is not a fleet report: %v", path, err)
			}
			if fleet.Phases == nil {
				fleet.Phases = make(map[string]*Report)
			}
		} else if !errors.Is(err, os.ErrNotExist) {
			return nil, err
		}
	}
	fleet.Phases[name] = rep
	if single, ok := fleet.Phases["single"]; ok && single.ThroughputRPS > 0 {
		if f, ok := fleet.Phases["fleet"]; ok {
			fleet.FleetVsSingleSpeedup = f.ThroughputRPS / single.ThroughputRPS
		}
	}
	if warm, ok := fleet.Phases["warm"]; ok {
		fleet.WarmRestartHitRate = warm.Cache.HitRate
	}
	if off, ok := fleet.Phases["obs-off"]; ok && off.ThroughputRPS > 0 {
		if on, ok := fleet.Phases["obs-on"]; ok {
			fleet.TracingOnVsOffRatio = on.ThroughputRPS / off.ThroughputRPS
		}
	}
	if path != "" {
		enc, err := json.MarshalIndent(fleet, "", "  ")
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(path, append(enc, '\n'), 0o644); err != nil {
			return nil, err
		}
	}
	return fleet, nil
}

// assert applies the -min-* acceptance thresholds.
func assert(opts options, rep *Report, fleet *FleetReport) error {
	if opts.minHitRate >= 0 && rep.Cache.HitRate < opts.minHitRate {
		return fmt.Errorf("hit rate %.3f below -min-hit-rate %.3f", rep.Cache.HitRate, opts.minHitRate)
	}
	if opts.minDiskHits >= 0 && rep.Cache.DiskHits < opts.minDiskHits {
		return fmt.Errorf("disk hits %d below -min-disk-hits %d", rep.Cache.DiskHits, opts.minDiskHits)
	}
	if opts.minSpeedup >= 0 {
		if fleet == nil || fleet.FleetVsSingleSpeedup == 0 {
			return fmt.Errorf("-min-speedup needs phases %q and %q in the fleet report", "fleet", "single")
		}
		if fleet.FleetVsSingleSpeedup < opts.minSpeedup {
			return fmt.Errorf("fleet_vs_single_speedup %.2f below -min-speedup %.2f", fleet.FleetVsSingleSpeedup, opts.minSpeedup)
		}
		fmt.Printf("loadgen: fleet_vs_single_speedup %.2fx (>= %.2f required)\n", fleet.FleetVsSingleSpeedup, opts.minSpeedup)
	}
	if opts.minTracingRatio >= 0 {
		if fleet == nil || fleet.Phases["obs-on"] == nil || fleet.Phases["obs-off"] == nil || fleet.TracingOnVsOffRatio == 0 {
			return fmt.Errorf("-min-tracing-ratio needs phases %q and %q in the fleet report", "obs-on", "obs-off")
		}
		if fleet.TracingOnVsOffRatio < opts.minTracingRatio {
			return fmt.Errorf("tracing_on_vs_off_ratio %.3f below -min-tracing-ratio %.3f", fleet.TracingOnVsOffRatio, opts.minTracingRatio)
		}
		// The ratio compares a traced phase with an untraced one only if
		// the phases really were: on traced end to end, off not at all.
		on, off := fleet.Phases["obs-on"], fleet.Phases["obs-off"]
		if on.TracedRequests < 1 || on.SlowestTrace == "" {
			return fmt.Errorf("obs-on phase was not traced end to end (traced_requests %d, slowest_trace %q)", on.TracedRequests, on.SlowestTrace)
		}
		if off.TracedRequests != 0 {
			return fmt.Errorf("obs-off phase traced %d requests (traced_requests must be 0)", off.TracedRequests)
		}
		fmt.Printf("loadgen: tracing_on_vs_off_ratio %.3f (>= %.3f required)\n", fleet.TracingOnVsOffRatio, opts.minTracingRatio)
	}
	return nil
}

// checkDebugTraces asserts the daemon's trace ring retained work from this
// run: GET /debug/traces?format=json must report tracing enabled and a
// slowest trace with at least one span.
func checkDebugTraces(addr string) error {
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get(strings.TrimSuffix(addr, "/") + "/debug/traces?format=json")
	if err != nil {
		return fmt.Errorf("-check-traces: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("-check-traces: /debug/traces returned %d", resp.StatusCode)
	}
	var body struct {
		Enabled bool               `json:"enabled"`
		Ended   uint64             `json:"traces_ended"`
		Slowest []obs.TraceSummary `json:"slowest"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return fmt.Errorf("-check-traces: bad /debug/traces JSON: %v", err)
	}
	if !body.Enabled {
		return fmt.Errorf("-check-traces: tracing is disabled on %s", addr)
	}
	if len(body.Slowest) == 0 || len(body.Slowest[0].Spans) == 0 {
		return fmt.Errorf("-check-traces: no slowest trace retained after the run")
	}
	fmt.Printf("loadgen: trace ring ok (%d traces completed, slowest %s %s)\n",
		body.Ended, body.Slowest[0].TraceID, body.Slowest[0].Root)
	return nil
}

func shoot(ctx context.Context, client *http.Client, url string, body []byte) (sample, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return sample{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	start := time.Now()
	resp, err := client.Do(req)
	if err != nil {
		return sample{}, err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return sample{
		latency: time.Since(start),
		status:  resp.StatusCode,
		cache:   resp.Header.Get("X-Trios-Cache"),
		replica: resp.Header.Get("X-Trios-Replica"),
		trace:   resp.Header.Get(obs.TraceHeader),
	}, nil
}

func summarize(all []sample, elapsed time.Duration) *Report {
	rep := &Report{StatusCounts: make(map[string]int)}
	latencies := make([]float64, 0, len(all))
	var sum float64
	var slowest time.Duration
	for _, s := range all {
		rep.Requests++
		key := fmt.Sprintf("%d", s.status)
		if s.status == 0 {
			key = "transport_error"
		}
		rep.StatusCounts[key]++
		if s.status < 200 || s.status >= 300 {
			rep.Errors++
			continue
		}
		if s.replica != "" {
			if rep.Replicas == nil {
				rep.Replicas = make(map[string]int)
			}
			rep.Replicas[s.replica]++
		}
		if s.trace != "" {
			rep.TracedRequests++
			if rep.SlowestTrace == "" || s.latency > slowest {
				rep.SlowestTrace = s.trace
				slowest = s.latency
			}
		}
		ms := float64(s.latency) / float64(time.Millisecond)
		latencies = append(latencies, ms)
		sum += ms
		switch s.cache {
		case "hit":
			rep.Cache.Hits++
		case "hit-disk":
			rep.Cache.DiskHits++
		case "coalesced":
			rep.Cache.Coalesced++
		default:
			rep.Cache.Misses++
		}
	}
	rep.DurationSeconds = elapsed.Seconds()
	if rep.DurationSeconds > 0 {
		rep.ThroughputRPS = float64(rep.Requests) / rep.DurationSeconds
	}
	if len(latencies) > 0 {
		sort.Float64s(latencies)
		rep.LatencyMS.P50 = quantile(latencies, 0.50)
		rep.LatencyMS.P95 = quantile(latencies, 0.95)
		rep.LatencyMS.P99 = quantile(latencies, 0.99)
		rep.LatencyMS.Mean = sum / float64(len(latencies))
		rep.LatencyMS.Max = latencies[len(latencies)-1]
	}
	if ok := rep.Cache.Hits + rep.Cache.DiskHits + rep.Cache.Misses + rep.Cache.Coalesced; ok > 0 {
		rep.Cache.HitRate = float64(rep.Cache.Hits+rep.Cache.DiskHits) / float64(ok)
	}
	return rep
}

// quantile returns the q-th quantile of sorted values (nearest-rank).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func sortedKeys(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
