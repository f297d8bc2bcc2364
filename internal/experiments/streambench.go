package experiments

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"runtime"
	"strings"
	"syscall"

	"trios/internal/benchmarks"
	"trios/internal/compiler"
	"trios/internal/qasm"
	"trios/internal/topo"
)

// The streaming-compile benchmark behind `make bench-stream`: it checks the
// windowed pipeline's two perf claims and writes BENCH_stream.json.
//
//  1. Bounded memory: a million-gate circuit compiles through StreamCompile
//     with peak RSS governed by the window size, not the circuit length.
//     RSS is measured in a fresh subprocess per arm (RSSExec) so the
//     high-water mark belongs to that compile alone; without an exec hook
//     it degrades to an in-process rusage reading.
//  2. Pipelining: the channel-connected stage drivers beat the serial
//     driver on a multi-core host (pipeline_vs_serial_speedup), while
//     producing bit-identical output (checked in-run, not assumed).

// StreamBenchOptions sizes one streaming benchmark run.
type StreamBenchOptions struct {
	Seed  int64
	Short bool // CI-sized gate counts
	// RSSExec, when non-nil, runs one child compile and returns its peak
	// RSS in bytes; the cmd/experiments binary self-execs with
	// TRIOS_STREAM_RSS_CHILD set. Nil measures in-process (test mode).
	RSSExec func(p StreamRSSParams) (int64, error)
	// Gate-count overrides for tests; zero keeps the Short/full defaults.
	LargeGates, SmallGates, EquivGates int
}

// StreamRSSParams tells a child process which compile to run for an RSS
// sample. It travels as JSON in the TRIOS_STREAM_RSS_CHILD env var.
type StreamRSSParams struct {
	Kind     string `json:"kind"` // qaoa | cliffordt
	Qubits   int    `json:"qubits"`
	Gates    int    `json:"gates"`
	Window   int    `json:"window"`
	Parallel bool   `json:"parallel"`
	Seed     int64  `json:"seed"`
	Topology string `json:"topology"`
}

// StreamBenchRun is one timed driver arm.
type StreamBenchRun struct {
	Arm         string  `json:"arm"` // "serial" or "pipeline"
	Gates       int     `json:"gates"`
	Windows     int     `json:"windows"`
	WallSeconds float64 `json:"wall_seconds"`
	GatesPerSec float64 `json:"gates_per_sec"`
}

// StreamBenchReport is the BENCH_stream.json schema.
type StreamBenchReport struct {
	Seed       int64  `json:"seed"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	Topology   string `json:"topology"`
	Kind       string `json:"kind"`
	Qubits     int    `json:"qubits"`
	Window     int    `json:"window"`

	// EquivalenceOK reports the in-run golden check: the streamed output of
	// EquivalenceGates gates was byte-identical to the monolithic
	// compile-then-emit of the same program, and the serial and pipelined
	// drivers agreed byte for byte at the benchmark size.
	EquivalenceOK    bool `json:"equivalence_ok"`
	EquivalenceGates int  `json:"equivalence_gates"`

	Runs []StreamBenchRun `json:"runs"`
	// PipelineVsSerialSpeedup is serial wall / pipeline wall on the same
	// stream. On a single-core host it hovers near (or below) 1.0: there is
	// no parallelism for the pipeline to claim.
	PipelineVsSerialSpeedup float64 `json:"pipeline_vs_serial_speedup"`

	// Peak RSS of a small and a large compile at the same window. The large
	// run is the headline peak_rss_bytes; the ratio close to 1.0 is the
	// "memory independent of circuit length" claim.
	SmallGates        int     `json:"small_gates"`
	SmallPeakRSSBytes int64   `json:"small_peak_rss_bytes"`
	LargeGates        int     `json:"large_gates"`
	PeakRSSBytes      int64   `json:"peak_rss_bytes"`
	RSSRatio          float64 `json:"rss_ratio"`
	// WindowBudgetBytes is the report's own memory ceiling: a process
	// baseline plus a generous per-windowed-gate allowance times the bounded
	// number of in-flight windows. peak_rss_bytes staying under it is the
	// floor Check holds.
	WindowBudgetBytes int64 `json:"window_budget_bytes"`
}

// streamBenchOpts are the fixed compile options of every benchmark arm:
// identity placement (greedy would legitimately differ between windowed and
// monolithic arms) and the trios pipeline with the direct router.
func streamBenchOpts(seed int64, window int, parallel bool) compiler.StreamOptions {
	return compiler.StreamOptions{
		Options: compiler.Options{
			Pipeline:  compiler.TriosPipeline,
			Placement: compiler.PlaceIdentity,
			Seed:      seed,
		},
		Window:   window,
		Parallel: parallel,
	}
}

// streamSource builds the deterministic workload stream for one arm.
func streamSource(p StreamRSSParams) (io.Reader, error) {
	switch p.Kind {
	case "qaoa":
		return benchmarks.StreamQAOA(p.Qubits, p.Gates, p.Seed), nil
	case "cliffordt":
		return benchmarks.StreamCliffordT(p.Qubits, p.Gates, p.Seed), nil
	}
	return nil, fmt.Errorf("experiments: unknown stream kind %q", p.Kind)
}

// StreamRSSChild runs one streaming compile to io.Discard and returns this
// process's peak RSS in bytes. It is the body of the self-exec child; run it
// in a fresh process, first thing, so the high-water mark measures the
// compile and not the caller's history.
func StreamRSSChild(p StreamRSSParams) (int64, error) {
	g, err := topo.ByName(p.Topology)
	if err != nil {
		return 0, err
	}
	src, err := streamSource(p)
	if err != nil {
		return 0, err
	}
	opts := streamBenchOpts(p.Seed, p.Window, p.Parallel)
	if _, err := compiler.StreamCompile(context.Background(), src, io.Discard, g, opts); err != nil {
		return 0, err
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	// ru.Maxrss is KiB on Linux.
	return ru.Maxrss * 1024, nil
}

// RunStreamBench runs the streaming benchmark and assembles the report.
func RunStreamBench(opts StreamBenchOptions) (*StreamBenchReport, error) {
	const (
		kind     = "cliffordt"
		qubits   = 16
		topoName = "johannesburg"
		window   = 4096
	)
	largeGates, smallGates, equivGates := 1_000_000, 100_000, 20_000
	if opts.Short {
		largeGates, smallGates = 200_000, 50_000
	}
	if opts.LargeGates > 0 {
		largeGates = opts.LargeGates
	}
	if opts.SmallGates > 0 {
		smallGates = opts.SmallGates
	}
	if opts.EquivGates > 0 {
		equivGates = opts.EquivGates
	}
	report := &StreamBenchReport{
		Seed:       opts.Seed,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Topology:   topoName,
		Kind:       kind,
		Qubits:     qubits,
		Window:     window,
		LargeGates: largeGates,
		SmallGates: smallGates,

		EquivalenceGates: equivGates,
	}
	g, err := topo.ByName(topoName)
	if err != nil {
		return nil, err
	}
	g.EnsureOracle()
	params := func(gates int, parallel bool) StreamRSSParams {
		return StreamRSSParams{
			Kind: kind, Qubits: qubits, Gates: gates, Window: window,
			Parallel: parallel, Seed: opts.Seed, Topology: topoName,
		}
	}

	// --- Golden check: streamed output vs monolithic Compile+Emit on a
	// circuit small enough to materialize.
	equivSrc, err := streamSource(params(equivGates, false))
	if err != nil {
		return nil, err
	}
	srcText, err := io.ReadAll(equivSrc)
	if err != nil {
		return nil, err
	}
	input, err := qasm.Parse(string(srcText))
	if err != nil {
		return nil, err
	}
	sopts := streamBenchOpts(opts.Seed, window, false)
	mono, err := compiler.Compile(input, g, sopts.Options)
	if err != nil {
		return nil, err
	}
	monoQASM, err := qasm.Emit(mono.Physical)
	if err != nil {
		return nil, err
	}
	var streamed strings.Builder
	if _, err := compiler.StreamCompile(context.Background(), bytes.NewReader(srcText), &streamed, g, sopts); err != nil {
		return nil, err
	}
	report.EquivalenceOK = streamed.String() == monoQASM

	// --- Serial vs pipelined drivers on the large stream. Both arms replay
	// the identical byte stream; their outputs are digested and compared, so
	// the speedup is only reported for equivalent work.
	samples := 2
	if opts.Short {
		samples = 1
	}
	digest := func(parallel bool) (sec float64, windows int, sum [32]byte, err error) {
		p := params(largeGates, parallel)
		var h hashWriter
		sec = timedBest(samples, func() error {
			h.reset()
			src, serr := streamSource(p)
			if serr != nil {
				return serr
			}
			res, serr := compiler.StreamCompile(context.Background(), src, &h, g, streamBenchOpts(p.Seed, p.Window, p.Parallel))
			if serr != nil {
				return serr
			}
			windows = res.Windows
			return nil
		}, &err)
		return sec, windows, h.sum(), err
	}
	serialSec, serialWindows, serialSum, err := digest(false)
	if err != nil {
		return nil, err
	}
	pipeSec, pipeWindows, pipeSum, err := digest(true)
	if err != nil {
		return nil, err
	}
	if serialSum != pipeSum {
		report.EquivalenceOK = false
	}
	report.Runs = []StreamBenchRun{
		{Arm: "serial", Gates: largeGates, Windows: serialWindows, WallSeconds: serialSec, GatesPerSec: float64(largeGates) / serialSec},
		{Arm: "pipeline", Gates: largeGates, Windows: pipeWindows, WallSeconds: pipeSec, GatesPerSec: float64(largeGates) / pipeSec},
	}
	if pipeSec > 0 {
		report.PipelineVsSerialSpeedup = serialSec / pipeSec
	}

	// --- Peak RSS: one fresh process (or in-process fallback) per size.
	measure := opts.RSSExec
	if measure == nil {
		measure = StreamRSSChild
	}
	if report.SmallPeakRSSBytes, err = measure(params(smallGates, true)); err != nil {
		return nil, err
	}
	if report.PeakRSSBytes, err = measure(params(largeGates, true)); err != nil {
		return nil, err
	}
	if report.SmallPeakRSSBytes > 0 {
		report.RSSRatio = float64(report.PeakRSSBytes) / float64(report.SmallPeakRSSBytes)
	}
	// Budget: 64 MiB of process baseline (runtime, device tables, code)
	// plus 2 KiB per windowed gate across at most 16 in-flight windows
	// (the parallel driver holds ~5, each expanded a few-fold by
	// decomposition and routing; 16 is a deliberate over-estimate).
	report.WindowBudgetBytes = 64<<20 + int64(window)*2048*16
	return report, nil
}

// hashWriter folds a byte stream into a SHA-256-free rolling digest; the
// benchmark only needs equality between two local streams, not a
// collision-resistant address, and FNV-1a costs nothing per window.
type hashWriter struct {
	h  uint64
	n  int64
	ok bool
}

func (w *hashWriter) reset() { w.h = 14695981039346656037; w.n = 0; w.ok = true }

func (w *hashWriter) Write(p []byte) (int, error) {
	if !w.ok {
		w.reset()
	}
	for _, b := range p {
		w.h ^= uint64(b)
		w.h *= 1099511628211
	}
	w.n += int64(len(p))
	return len(p), nil
}

func (w *hashWriter) sum() (s [32]byte) {
	for i := 0; i < 8; i++ {
		s[i] = byte(w.h >> (8 * i))
		s[8+i] = byte(uint64(w.n) >> (8 * i))
	}
	return s
}

// WriteText prints a human-readable summary.
func (r *StreamBenchReport) WriteText(w io.Writer) {
	fmt.Fprintf(w, "Streaming compile benchmark (seed %d, GOMAXPROCS %d, NumCPU %d)\n", r.Seed, r.GOMAXPROCS, r.NumCPU)
	fmt.Fprintf(w, "workload: %s, %d qubits on %s, window %d gates\n", r.Kind, r.Qubits, r.Topology, r.Window)
	fmt.Fprintf(w, "%-10s %9s %8s %10s %14s\n", "arm", "gates", "windows", "seconds", "gates/sec")
	for _, run := range r.Runs {
		fmt.Fprintf(w, "%-10s %9d %8d %10.3f %14.0f\n", run.Arm, run.Gates, run.Windows, run.WallSeconds, run.GatesPerSec)
	}
	fmt.Fprintf(w, "pipeline vs serial speedup:  %.2fx\n", r.PipelineVsSerialSpeedup)
	fmt.Fprintf(w, "peak RSS %d gates:        %6.1f MiB\n", r.SmallGates, float64(r.SmallPeakRSSBytes)/(1<<20))
	fmt.Fprintf(w, "peak RSS %d gates:       %6.1f MiB (ratio %.2f, budget %.0f MiB)\n",
		r.LargeGates, float64(r.PeakRSSBytes)/(1<<20), r.RSSRatio, float64(r.WindowBudgetBytes)/(1<<20))
}
