// Command perfbench is the repository's benchmark: one program that runs a
// named workload against the public APIs of the compiler, the serving layer,
// the QASM codec and the streaming compiler, checks every output, and prints
// one JSON result line. With -trace 1 it times each layer it calls into and
// reports per-layer self times instead of the end-to-end metrics.
//
//	perfbench -workload table1-grid -seed 1 -seconds 10 -trace 0
//
// See README.md for the workloads, the metrics and what each layer metric
// should move.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"trios/internal/version"
)

// metricDef declares one reported metric.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
}

// endToEnd lists the metrics every untraced run reports, on every workload.
// README.md says what each one measures on each workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"gates_per_s", "1/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_p99_ms", "ms", "lower"},
	{"cx_total", "count", "lower"},
	{"success_nlog10", "-log10", "lower"},
	{"peak_rss_mib", "MiB", "lower"},
}

// perLayer lists the metrics every traced run reports. A layer a workload
// does not call into reports 0.
var perLayer = []metricDef{
	{"service.decode_us.p50", "us", "lower"},
	{"service.decode_us.p99", "us", "lower"},
	{"service.resolve_us.p50", "us", "lower"},
	{"service.resolve_us.p99", "us", "lower"},
	{"qasm.parse_us.p50", "us", "lower"},
	{"qasm.parse_us.p99", "us", "lower"},
	{"qasm.emit_us.p50", "us", "lower"},
	{"qasm.emit_us.p99", "us", "lower"},
	{"service.resolve_allocs", "count", "lower"},
	{"service.compile_us.p50", "us", "lower"},
	{"service.compile_us.p99", "us", "lower"},
	{"service.write_us.p50", "us", "lower"},
	{"service.write_us.p99", "us", "lower"},
	{"service.hit_ratio", "ratio", "higher"},
	{"service.rejected", "count", "lower"},
	{"decompose.front_ms.p50", "ms", "lower"},
	{"decompose.front_ms.p99", "ms", "lower"},
	{"layout.place_ms.p50", "ms", "lower"},
	{"layout.place_ms.p99", "ms", "lower"},
	{"route.main_ms.p50", "ms", "lower"},
	{"route.main_ms.p99", "ms", "lower"},
	{"decompose.mapping_ms.p50", "ms", "lower"},
	{"decompose.mapping_ms.p99", "ms", "lower"},
	{"rewrite.saturate_ms.p50", "ms", "lower"},
	{"rewrite.saturate_ms.p99", "ms", "lower"},
	{"decompose.lower_ms.p50", "ms", "lower"},
	{"decompose.lower_ms.p99", "ms", "lower"},
	{"noise.fidelity_ms.p50", "ms", "lower"},
	{"noise.fidelity_ms.p99", "ms", "lower"},
	{"route.swaps", "count", "lower"},
	{"rewrite.removed_2q", "count", "higher"},
	{"compiler.batch_speedup", "ratio", "higher"},
	{"qasm.stream_read_mgates_per_s", "Mgates/s", "higher"},
	{"qasm.stream_emit_mgates_per_s", "Mgates/s", "higher"},
	{"stream.pipeline_speedup", "ratio", "higher"},
	{"stream.windows", "count", "lower"},
	{"stream.swaps", "count", "lower"},
	{"unattributed_ms", "ms", "lower"},
	{"trace.overhead_pct", "%", "lower"},
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*run) error{
	"table1-grid":      runGrid,
	"serve-hit":        func(r *run) error { return runServe(r, false) },
	"serve-miss":       func(r *run) error { return runServe(r, true) },
	"stream-cliffordt": runStream,
}

// run carries one invocation's settings and everything it measured.
type run struct {
	workload string
	seed     int64
	seconds  time.Duration
	tr       *tracer // nil in the untraced run
	procs    int     // nproc: GOMAXPROCS, batch workers and client count

	attempted, failed int
	failures          []string

	metrics map[string]float64
	notes   map[string]any // sample counts and percentile choices
}

// op records the outcome of one measured operation or check: every call is
// an attempt, and a non-nil error is a failure.
func (r *run) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.failures) < 20 {
			r.failures = append(r.failures, err.Error())
		}
	}
}

func (r *run) set(name string, v float64) { r.metrics[name] = v }

func (r *run) note(key string, v any) { r.notes[key] = v }

// latency sets the two latency metrics from per-operation samples in ms
// (+Inf marks a failed operation, which misses any latency limit).
func (r *run) latency(samples []float64) {
	r.set("latency_p50_ms", median(samples))
	v, q, n := tailPercentile(samples, 0.99)
	r.set("latency_p99_ms", v)
	r.note("latency_samples", n)
	r.note("latency_tail_quantile", q)
}

// windowedLatency sets the two latency metrics from samples (ms) grouped
// into windows of the measured phase: each is the median over windows of
// that window's median or tail percentile, so one stalled second moves
// neither.
func (r *run) windowedLatency(windows [][]float64) {
	var p50, p99, quantiles []float64
	minN := math.MaxInt
	for _, w := range windows {
		if len(w) == 0 {
			continue
		}
		p50 = append(p50, median(w))
		v, q, n := tailPercentile(w, 0.99)
		p99 = append(p99, v)
		quantiles = append(quantiles, q)
		minN = min(minN, n)
	}
	r.set("latency_p50_ms", median(p50))
	r.set("latency_p99_ms", median(p99))
	r.note("latency_windows", len(p50))
	r.note("latency_min_window_samples", minN)
	r.note("latency_tail_quantile", median(quantiles))
}

// setLayer sets name.p50 and name.p99 from self times in ns, scaled to the
// metric's unit.
func (r *run) setLayer(name string, selfNs []float64, unit time.Duration) {
	if len(selfNs) == 0 {
		return
	}
	scaled := make([]float64, len(selfNs))
	for i, v := range selfNs {
		scaled[i] = v / float64(unit)
	}
	r.set(name+".p50", median(scaled))
	v, q, n := tailPercentile(scaled, 0.99)
	r.set(name+".p99", v)
	r.note(name+".calls", n)
	r.note(name+".p99_quantile", q)
}

// unattributed sets unattributed_ms over operations whose root span is
// named op.
func (r *run) unattributed(op string, layers map[string]bool) {
	un, n := unattributed(r.tr.snapshot(), op, layers)
	r.set("unattributed_ms", un/float64(time.Millisecond))
	r.note("unattributed_ops", n)
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	var (
		name    = flag.String("workload", "", "workload: table1-grid, serve-hit, serve-miss or stream-cliffordt")
		seed    = flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds = flag.Int("seconds", 10, "measured seconds")
		trace   = flag.Int("trace", 0, "1: report per-layer self times instead of end-to-end metrics")
		out     = flag.String("out", ".bench_build/perfbench", "directory for the run record and trace")
	)
	flag.Parse()
	drive, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	// One client goroutine and one compile worker per CPU, and no more
	// scheduler threads than CPUs.
	procs := runtime.NumCPU()
	runtime.GOMAXPROCS(procs)
	r := &run{
		workload: *name,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		procs:    procs,
		metrics:  make(map[string]float64),
		notes:    make(map[string]any),
	}
	if *trace == 1 {
		r.tr = newTracer()
	}
	build := version.Get()
	commit := build.Revision
	if commit == "" {
		commit = "unknown"
	}
	env := map[string]any{
		"workload": r.workload, "seed": r.seed, "seconds": *seconds, "trace": *trace,
		"num_cpu": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(), "commit": commit, "dirty": build.Dirty,
	}
	fmt.Fprintf(os.Stderr, "perfbench %s seed=%d seconds=%d trace=%d num_cpu=%d gomaxprocs=%d %s commit=%s\n",
		r.workload, r.seed, *seconds, *trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit)

	if err := drive(r); err != nil {
		// An error here means the workload could not run at all; no
		// result line is printed.
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}

	defs := endToEnd
	if r.tr != nil {
		defs = perLayer
	}
	res := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]metric)}
	for _, d := range defs {
		v, ok := r.metrics[d.Name]
		if !ok && r.tr == nil {
			fmt.Fprintf(os.Stderr, "perfbench: workload %s did not measure %s\n", r.workload, d.Name)
			return 1
		}
		if math.IsInf(v, 0) || math.IsNaN(v) {
			// Failed operations make tail latencies infinite; JSON has no
			// infinity, and the run is already marked incorrect.
			v = math.MaxFloat64
		}
		res.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
		fmt.Fprintf(os.Stderr, "  %-32s %16.6g %-9s %s\n", d.Name, v, d.Unit, d.Better)
	}
	fmt.Fprintf(os.Stderr, "  attempted=%d failed=%d\n", r.attempted, r.failed)
	for _, f := range r.failures {
		fmt.Fprintln(os.Stderr, "  failure:", f)
	}

	if err := writeRecord(*out, r, env, res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing run record:", err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// writeRecord keeps the run's environment, notes, failures and, for a traced
// run, every span, in one JSON file under dir.
func writeRecord(dir string, r *run, env map[string]any, res result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	trace := 0
	if r.tr != nil {
		trace = 1
	}
	rec := map[string]any{
		"env": env, "result": res, "notes": r.notes, "failures": r.failures,
		"spans": r.tr.snapshot(),
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", r.workload, r.seed, trace)))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(rec); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// peakRSSMiB is the process's peak resident set size so far. Workloads
// read it when their measured phase ends, before the checks allocate.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// medianSetup runs setup reps times and returns the last setup's value and
// the median setup duration in seconds; earlier values are released with
// done.
func medianSetup[T any](reps int, setup func() (T, error), done func(T)) (T, float64, error) {
	var (
		last  T
		times []float64
	)
	for i := 0; i < reps; i++ {
		if i > 0 && done != nil {
			done(last)
		}
		t := time.Now()
		v, err := setup()
		if err != nil {
			return v, 0, err
		}
		times = append(times, time.Since(t).Seconds())
		last = v
	}
	runtime.GC() // set-up garbage must not count in the measured phase's memory
	return last, median(times), nil
}

// splitmix derives independent 63-bit seeds from the workload seed.
func splitmix(seed int64, i uint64) int64 {
	z := uint64(seed) + (i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z >> 1)
}
