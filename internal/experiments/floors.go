package experiments

import (
	"errors"
	"fmt"
	"math"
)

// Benchmark floors: every number a BENCH_*.json report is held to. Each
// report's Check applies its own, and cmd/experiments -bench exits nonzero
// on any violation, so each `make bench-*` step fails by itself. Serving
// floors (hit rate, fleet speedup, tracing cost) are loadgen's -min-* flags.
// The kernel floors (BENCH_kernels.txt) are Go benchmarks beside the frozen
// legacy arms they time: internal/route/kernelfloor_test.go and
// internal/sim/kernelfloor_test.go each hold their minKernelSpeedup.
const (
	minSimParallelSpeedup    = 1.2 // sim parallel_speedup, on >= 2 cores
	minOptSaturateBetter     = 8   // optimize saturate_better (short grid: 9, full: 47)
	minTemplateSpeedup       = 1.5 // optimize template_min_speedup
	minStreamPipelineSpeedup = 1.2 // stream pipeline_vs_serial_speedup, on >= 2 cores
)

// violations collects floor failures; each names the JSON field it failed.
type violations []error

func (v *violations) add(format string, args ...any) {
	*v = append(*v, fmt.Errorf(format, args...))
}

func (v violations) err() error { return errors.Join(v...) }

// parallelSpeedupMeasured fails a report whose parallel speedup was
// suppressed (the parallel arm had one effective worker) or is missing, and
// reports whether there is a speedup to hold to a floor.
func (v *violations) parallelSpeedupMeasured(speedup float64, note string) bool {
	switch {
	case note != "":
		v.add("parallel_speedup suppressed: %s", note)
	case speedup <= 0:
		v.add("parallel_speedup missing")
	default:
		return true
	}
	return false
}

// Check holds BENCH_compile.json to its floors: serial and parallel drains
// identical, and a parallel speedup that was actually measured.
func (r *CompileBenchReport) Check() error {
	var v violations
	if !r.Deterministic {
		v.add("deterministic is false: serial and parallel drains diverged")
	}
	v.parallelSpeedupMeasured(r.Speedup, r.SpeedupNote)
	return v.err()
}

// Check holds BENCH_sim.json to its floors: every deterministic
// cross-check passed, and parallel_speedup >= minSimParallelSpeedup on
// multi-core hosts.
func (r *SimBenchReport) Check() error {
	var v violations
	if !r.Deterministic {
		v.add("deterministic is false: a cross-check failed (parallel vs serial identity, fused vs gate-at-a-time fidelity, or Monte-Carlo engine vs serial sampler)")
	}
	// On one core goroutines cannot run concurrently, so a ratio near 1.0
	// is physics, not a regression; num_cpu in the report audits the skip.
	if v.parallelSpeedupMeasured(r.ParallelSpeedup, r.ParallelSpeedupNote) &&
		r.NumCPU >= 2 && r.ParallelSpeedup < minSimParallelSpeedup {
		v.add("parallel_speedup %.2f < floor %g on %d cores", r.ParallelSpeedup, minSimParallelSpeedup, r.NumCPU)
	}
	return v.err()
}

// Check holds BENCH_noise.json to its floors: the noise-aware arm's mean
// estimated success is at least the uniform control's, and the geomean
// ratio is a number.
func (r *NoiseBenchReport) Check() error {
	var v violations
	if !(r.MeanNoise >= r.MeanUniform) {
		v.add("mean_noise %.4g < mean_uniform %.4g", r.MeanNoise, r.MeanUniform)
	}
	if math.IsNaN(r.GeoMeanRatio) {
		v.add("geomean_ratio is NaN")
	}
	return v.err()
}

// Check holds BENCH_optimize.json to its floors: no grid cell above its
// committed legacy two-qubit count, at least minOptSaturateBetter cells
// strictly below it, every cell verified equivalent, and the template-warm
// path at least minTemplateSpeedup faster.
func (r *OptBenchReport) Check() error {
	var v violations
	if len(r.Rows) == 0 {
		v.add("rows is empty")
	}
	for _, row := range r.Rows {
		if row.SaturateTwoQubit > row.LegacyTwoQubit {
			v.add("saturate_two_qubit %d > legacy_two_qubit %d on %s %s %s",
				row.SaturateTwoQubit, row.LegacyTwoQubit, row.Benchmark, row.Pipeline, row.Topology)
		}
	}
	if r.SaturateWorse != 0 {
		v.add("saturate_worse %d != 0", r.SaturateWorse)
	}
	if r.SaturateBetter < minOptSaturateBetter {
		v.add("saturate_better %d < floor %d", r.SaturateBetter, minOptSaturateBetter)
	}
	if !r.EquivalenceOK {
		v.add("equivalence_ok is false (%d cells checked)", r.EquivalenceChecked)
	}
	if r.TemplateMinSpeedup < minTemplateSpeedup {
		v.add("template_min_speedup %.2f < floor %g", r.TemplateMinSpeedup, minTemplateSpeedup)
	}
	return v.err()
}

// Check holds BENCH_stream.json to its floors: streamed output equivalent to
// the monolithic arm, peak RSS within the report's window budget, and
// pipeline_vs_serial_speedup >= minStreamPipelineSpeedup on multi-core
// hosts. The RSS floor applies everywhere: memory needs no second core.
func (r *StreamBenchReport) Check() error {
	var v violations
	if !r.EquivalenceOK {
		v.add("equivalence_ok is false: streamed output diverged from the monolithic arm")
	}
	switch {
	case r.PeakRSSBytes <= 0 || r.WindowBudgetBytes <= 0:
		v.add("peak_rss_bytes %d or window_budget_bytes %d missing", r.PeakRSSBytes, r.WindowBudgetBytes)
	case r.PeakRSSBytes > r.WindowBudgetBytes:
		v.add("peak_rss_bytes %d > window_budget_bytes %d", r.PeakRSSBytes, r.WindowBudgetBytes)
	}
	if r.NumCPU >= 2 && r.PipelineVsSerialSpeedup < minStreamPipelineSpeedup {
		v.add("pipeline_vs_serial_speedup %.2f < floor %g on %d cores",
			r.PipelineVsSerialSpeedup, minStreamPipelineSpeedup, r.NumCPU)
	}
	return v.err()
}
