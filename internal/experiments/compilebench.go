package experiments

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"

	"trios/internal/benchmarks"
	"trios/internal/compiler"
	"trios/internal/topo"
)

// CompileBenchRun is one timed drain of the full compile workload.
// GOMAXPROCS is recorded per run so a "parallel" drain that only ever had
// one effective worker is identifiable from the artifact alone.
type CompileBenchRun struct {
	Name          string  `json:"name"`
	Workers       int     `json:"workers"`
	GOMAXPROCS    int     `json:"gomaxprocs"`
	Jobs          int     `json:"jobs"`
	WallSeconds   float64 `json:"wall_seconds"`
	JobsPerSecond float64 `json:"jobs_per_second"`
}

// CompileBenchReport is the machine-readable compile-path benchmark the CI
// pipeline emits as BENCH_compile.json: the full (benchmark x topology x
// pipeline) grid compiled serially and with the worker pool, plus the
// aggregate per-pass wall-clock breakdown of the parallel run.
type CompileBenchReport struct {
	Seed       int64 `json:"seed"`
	GOMAXPROCS int   `json:"gomaxprocs"`
	// EffectiveWorkers is min(workers, GOMAXPROCS, jobs) — the parallelism
	// the parallel drain actually had. A benchmark artifact from a throttled
	// environment is identifiable from this field alone.
	EffectiveWorkers int               `json:"effective_workers"`
	Runs             []CompileBenchRun `json:"runs"`
	// Speedup is serial wall-clock over parallel wall-clock. It is omitted
	// (with SpeedupNote explaining why) when the parallel drain had only one
	// effective worker — min(workers, GOMAXPROCS, jobs) <= 1 — because the
	// two runs then measure the same serial execution and the ratio is
	// scheduling noise, not a speedup.
	Speedup     float64            `json:"parallel_speedup,omitempty"`
	SpeedupNote string             `json:"parallel_speedup_note,omitempty"`
	PassSeconds map[string]float64 `json:"pass_seconds"`
	// RouteSeconds sums every route:* pass — the compile grid's historical
	// hot path, broken out so its trajectory is visible at a glance in CI
	// artifacts without summing PassSeconds by hand.
	RouteSeconds float64 `json:"route_seconds"`
	// Deterministic is true when the serial and parallel drains produced
	// gate-for-gate identical circuits for every job — the batch engine's
	// core invariant, re-checked on every CI run.
	Deterministic bool `json:"deterministic"`
}

// compileBenchJobs builds the benchmark workload: every registry benchmark
// on every paper topology with both pipelines (the Figs. 9-11 compile grid).
// The topology list is built once and shared by every job so each device's
// distance oracle is built exactly once for the whole grid.
func compileBenchJobs(seed int64) ([]compiler.Job, error) {
	topos := topo.PaperTopologies()
	var jobs []compiler.Job
	for _, b := range benchmarks.All() {
		c, err := b.Build()
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", b.Name, err)
		}
		for _, g := range topos {
			for _, pipe := range []compiler.Pipeline{compiler.Conventional, compiler.TriosPipeline} {
				jobs = append(jobs, compiler.Job{
					ID:    fmt.Sprintf("%s %v on %s", b.Name, pipe, g.Name()),
					Input: c,
					Graph: g,
					Opts:  pairOptions(pipe, seed),
				})
			}
		}
	}
	return jobs, nil
}

// RunCompileBench times the compile workload serially and with a pool of
// the given size (<= 0 means GOMAXPROCS) and cross-checks that both drains
// produce identical circuits.
func RunCompileBench(workers int, seed int64) (*CompileBenchReport, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	jobs, err := compileBenchJobs(seed)
	if err != nil {
		return nil, err
	}
	drain := func(w int) ([]*compiler.Result, float64, error) {
		b := &compiler.Batch{Workers: w}
		start := time.Now()
		rs, err := b.Run(context.Background(), jobs)
		if err != nil {
			return nil, 0, err
		}
		results, err := compiler.Results(rs)
		if err != nil {
			return nil, 0, err
		}
		return results, time.Since(start).Seconds(), nil
	}
	serial, serialSec, err := drain(1)
	if err != nil {
		return nil, err
	}
	parallel, parallelSec, err := drain(workers)
	if err != nil {
		return nil, err
	}
	report := &CompileBenchReport{
		Seed:          seed,
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		Deterministic: true,
		PassSeconds:   map[string]float64{},
	}
	for i := range jobs {
		if !serial[i].Physical.Equal(parallel[i].Physical) {
			report.Deterministic = false
		}
		for _, m := range parallel[i].Passes {
			// Cached front metrics are reused from the dedup cache; only the
			// job that computed them carries the real wall-clock.
			if m.Cached {
				continue
			}
			report.PassSeconds[m.Pass] += m.Duration.Seconds()
			if strings.HasPrefix(m.Pass, "route:") {
				report.RouteSeconds += m.Duration.Seconds()
			}
		}
	}
	maxprocs := runtime.GOMAXPROCS(0)
	report.Runs = []CompileBenchRun{
		{Name: "compile-grid-serial", Workers: 1, GOMAXPROCS: maxprocs, Jobs: len(jobs), WallSeconds: serialSec, JobsPerSecond: float64(len(jobs)) / serialSec},
		{Name: "compile-grid-parallel", Workers: workers, GOMAXPROCS: maxprocs, Jobs: len(jobs), WallSeconds: parallelSec, JobsPerSecond: float64(len(jobs)) / parallelSec},
	}
	effective := workers
	if maxprocs < effective {
		effective = maxprocs
	}
	if len(jobs) < effective {
		effective = len(jobs)
	}
	report.EffectiveWorkers = effective
	switch {
	case effective <= 1:
		report.SpeedupNote = fmt.Sprintf("parallel run had %d effective worker(s) (workers=%d, GOMAXPROCS=%d); speedup suppressed as meaningless", effective, workers, maxprocs)
	case parallelSec > 0:
		report.Speedup = serialSec / parallelSec
	}
	return report, nil
}

// WriteText prints a one-line summary.
func (r *CompileBenchReport) WriteText(w io.Writer) {
	if r.SpeedupNote != "" {
		fmt.Fprintf(w, "compile bench: %d jobs, route %.3fs; %s\n",
			r.Runs[0].Jobs, r.RouteSeconds, r.SpeedupNote)
		return
	}
	fmt.Fprintf(w, "compile bench: %d jobs, route %.3fs, %.2fx parallel speedup with %d workers\n",
		r.Runs[0].Jobs, r.RouteSeconds, r.Speedup, r.Runs[1].Workers)
}
