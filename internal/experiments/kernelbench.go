package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"runtime"

	"trios/internal/circuit"
	"trios/internal/layout"
	"trios/internal/route"
	"trios/internal/sim"
	"trios/internal/topo"
)

// The kernel micro-benchmark: old-vs-new on the two hot loops the
// branch-free rewrite targeted. Both arms of every workload are live code —
// the "old" arms are the preserved legacy implementations
// (Stochastic/Lookahead LegacyScoring and State.LegacyApplyCircuit) that
// the golden suites pin bit-identical to the new ones — so the reported
// speedups compare real, verified-equivalent implementations, not a straw
// man.

// KernelBenchRun is one timed arm of a kernel workload.
type KernelBenchRun struct {
	Name        string  `json:"name"`
	Arm         string  `json:"arm"` // "legacy" or "new"
	Qubits      int     `json:"qubits"`
	Gates       int     `json:"gates"`
	Reps        int     `json:"reps"`
	WallSeconds float64 `json:"wall_seconds"`
}

// KernelBenchReport is the machine-readable kernel benchmark CI emits as
// BENCH_kernels.json.
type KernelBenchReport struct {
	Seed       int64            `json:"seed"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	NumCPU     int              `json:"num_cpu"`
	Runs       []KernelBenchRun `json:"runs"`
	// RouteStochasticSpeedup is legacy branchy delta-scoring over the
	// branchless slab sweep on the stochastic router workload.
	RouteStochasticSpeedup float64 `json:"route_stochastic_speedup"`
	// RouteLookaheadSpeedup is the same comparison on the lookahead
	// router's window-cost loop.
	RouteLookaheadSpeedup float64 `json:"route_lookahead_speedup"`
	// DenseSweepSpeedup is the headline old-vs-new dense sweep number:
	// the seed's full-scan gate loops (LegacyApplyCircuit) against the
	// engine the verify path actually runs today (Fuse + unrolled
	// kernels), on a cache-resident register. At that size the comparison
	// measures the kernels; on DRAM-spilling registers both engines
	// converge on the memory bus (see the 16-qubit rows, reported for
	// transparency as DenseSweep16Speedup).
	DenseSweepSpeedup float64 `json:"dense_sweep_speedup"`
	// UnrolledSweepSpeedup isolates the kernel rewrite alone: legacy
	// full-scan loops vs gate-at-a-time unrolled kernels (no fusion),
	// same cache-resident register.
	UnrolledSweepSpeedup float64 `json:"unrolled_sweep_speedup"`
	// DenseSweep16Speedup is the same serial comparison at the verify
	// suite's 16-qubit size, where the 1 MiB state spills past L2 and
	// memory bandwidth bounds both arms.
	DenseSweep16Speedup float64 `json:"dense_sweep16_speedup"`
	// DenseSweep16ParSpeedup compares the legacy loops against the new
	// engine as deployed — fused kernels with the parallel sweep pool at
	// GOMAXPROCS workers (16-qubit sweeps clear the parallel crossover;
	// cache-resident 12-qubit sweeps never do). The legacy engine has no
	// parallel path, so this is the full old-vs-new engine gap; on a
	// single-core host it degrades to the serial number by design.
	DenseSweep16ParSpeedup float64 `json:"dense_sweep16_par_speedup"`
	// Identical is true when every new arm reproduced its legacy arm
	// exactly: identical routed gate streams and bit-identical amplitudes.
	Identical bool `json:"identical"`
}

// kernelRouteCircuit builds a routing workload with both pair and trio
// pressure: mostly CX with CCX and 1q gates mixed in.
func kernelRouteCircuit(rng *rand.Rand, n, gates int) *circuit.Circuit {
	c := circuit.New(n)
	for i := 0; i < gates; i++ {
		switch rng.Intn(10) {
		case 0, 1:
			c.H(rng.Intn(n))
		case 2, 3:
			p := rng.Perm(n)
			c.CCX(p[0], p[1], p[2])
		default:
			p := rng.Perm(n)
			c.CX(p[0], p[1])
		}
	}
	return c
}

// kernelSweepCircuit builds a dense-sweep workload hitting every kernel
// shape: 1q matrices, controlled matrices with 1-3 controls, phases, and
// swaps.
func kernelSweepCircuit(rng *rand.Rand, n, gates int) *circuit.Circuit {
	c := circuit.New(n)
	for i := 0; i < gates; i++ {
		switch rng.Intn(8) {
		case 0, 1:
			c.U3(rng.Float64()*3, rng.Float64()*6, rng.Float64()*6, rng.Intn(n))
		case 2:
			c.H(rng.Intn(n))
		case 3:
			p := rng.Perm(n)
			c.CZ(p[0], p[1])
		case 4:
			p := rng.Perm(n)
			c.SWAP(p[0], p[1])
		case 5:
			p := rng.Perm(n)
			c.CCX(p[0], p[1], p[2])
		default:
			p := rng.Perm(n)
			c.CX(p[0], p[1])
		}
	}
	return c
}

// timedBest runs f `samples` times and returns the fastest wall-clock
// seconds. Micro-benchmark sections are short enough that a single sample is
// at the mercy of scheduler noise; the minimum of a few runs is the standard
// estimator for the workload's true cost.
func timedBest(samples int, f func() error, errp *error) float64 {
	best := 0.0
	for i := 0; i < samples; i++ {
		sec := timed(f, errp)
		if *errp != nil {
			return 0
		}
		if i == 0 || sec < best {
			best = sec
		}
	}
	return best
}

// sameRouted reports whether two routing results are exactly equal: same
// gate stream, same swap count, same final placement.
func sameRouted(a, b *route.Result) bool {
	return a.SwapsAdded == b.SwapsAdded &&
		reflect.DeepEqual(a.Circuit.Gates, b.Circuit.Gates) &&
		reflect.DeepEqual(a.Final.VirtualToPhys(), b.Final.VirtualToPhys())
}

// RunKernelBench times the route delta-scoring and dense amplitude-sweep
// workloads, legacy arm vs new arm, and cross-checks that the arms agree
// exactly.
func RunKernelBench(seed int64) (*KernelBenchReport, error) {
	report := &KernelBenchReport{
		Seed:       seed,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Identical:  true,
	}
	rng := rand.New(rand.NewSource(seed))

	// --- Route delta-scoring: the stochastic router's per-candidate trial
	// kernel. Like the dense sweeps, two sizes: the paper's 20-qubit device
	// for context, and a 100-qubit grid as the headline — per-trial work
	// scales with edges x pending gates, so on the small device the shared
	// DAG/emission scaffolding (paid identically by both arms) dilutes the
	// kernel under test. rTrials raises the per-layer trial count for the
	// same reason.
	const rTrials = 64
	var resNew, resOld *route.Result
	var err error
	for _, sz := range []struct {
		g      *topo.Graph
		gates  int
		reps   int
		suffix string
	}{
		{topo.Grid(10, 10), 400, 1, ""},
		{topo.Grid5x4(), 300, 10, "-20"},
	} {
		g := sz.g
		rc := kernelRouteCircuit(rng, g.NumQubits(), sz.gates)
		init := layout.Identity(g.NumQubits())
		stochNew := &route.Stochastic{Seed: seed, TrioAware: true, Trials: rTrials}
		stochOld := stochNew.LegacyScoring()
		newSec := timedBest(3, func() error {
			for r := 0; r < sz.reps; r++ {
				if resNew, err = stochNew.Route(rc, g, init); err != nil {
					return err
				}
			}
			return nil
		}, &err)
		if err != nil {
			return nil, err
		}
		oldSec := timedBest(3, func() error {
			for r := 0; r < sz.reps; r++ {
				if resOld, err = stochOld.Route(rc, g, init); err != nil {
					return err
				}
			}
			return nil
		}, &err)
		if err != nil {
			return nil, err
		}
		if !sameRouted(resNew, resOld) {
			report.Identical = false
		}
		report.Runs = append(report.Runs,
			KernelBenchRun{Name: "route-stochastic" + sz.suffix, Arm: "legacy", Qubits: g.NumQubits(), Gates: sz.gates, Reps: sz.reps, WallSeconds: oldSec},
			KernelBenchRun{Name: "route-stochastic" + sz.suffix, Arm: "new", Qubits: g.NumQubits(), Gates: sz.gates, Reps: sz.reps, WallSeconds: newSec},
		)
		if sz.suffix == "" && newSec > 0 {
			report.RouteStochasticSpeedup = oldSec / newSec
		}
	}

	// The lookahead window-cost sweep is O(edges x window) per emitted swap
	// in the legacy arm and O(window + edges x touched) in the delta arm, so
	// its advantage scales with device size and window depth. Benchmark it on
	// a 64-qubit grid with a deep window, where the sweep (the object under
	// test) dominates the shared DAG/emission scaffolding.
	const (
		lGates = 400
		lReps  = 3
	)
	lg := topo.Grid(8, 8)
	lc := kernelRouteCircuit(rng, lg.NumQubits(), lGates)
	linit := layout.Identity(lg.NumQubits())
	lookNew := &route.Lookahead{Seed: seed, TrioAware: true, Window: 80}
	lookOld := lookNew.LegacyScoring()
	newSec := timedBest(3, func() error {
		for r := 0; r < lReps; r++ {
			if resNew, err = lookNew.Route(lc, lg, linit); err != nil {
				return err
			}
		}
		return nil
	}, &err)
	if err != nil {
		return nil, err
	}
	oldSec := timedBest(3, func() error {
		for r := 0; r < lReps; r++ {
			if resOld, err = lookOld.Route(lc, lg, linit); err != nil {
				return err
			}
		}
		return nil
	}, &err)
	if err != nil {
		return nil, err
	}
	if !sameRouted(resNew, resOld) {
		report.Identical = false
	}
	report.Runs = append(report.Runs,
		KernelBenchRun{Name: "route-lookahead", Arm: "legacy", Qubits: lg.NumQubits(), Gates: lGates, Reps: lReps, WallSeconds: oldSec},
		KernelBenchRun{Name: "route-lookahead", Arm: "new", Qubits: lg.NumQubits(), Gates: lGates, Reps: lReps, WallSeconds: newSec},
	)
	if newSec > 0 {
		report.RouteLookaheadSpeedup = oldSec / newSec
	}

	// --- Dense sweeps: mixed-shape circuits at a cache-resident size (the
	// kernel regime) and at the verify suite's 16 qubits (the bandwidth
	// regime), legacy full-scan loops vs unrolled kernels vs the fused
	// engine. Initial states are prepared outside the timed regions.
	const sGates = 300
	for _, sz := range []struct {
		qubits int
		reps   int
		suffix string
	}{
		{12, 60, ""},
		{16, 6, "-16"},
	} {
		sQubits, sReps := sz.qubits, sz.reps
		sc := kernelSweepCircuit(rng, sQubits, sGates)
		bases := make([]*sim.State, sReps)
		for r := range bases {
			bases[r] = sim.NewRandomState(sQubits, seed+int64(r))
		}
		var legacyOut, kernelOut, fusedOut *sim.State
		legacySweepSec := timedBest(3, func() error {
			for r := 0; r < sReps; r++ {
				s := bases[r].Copy()
				if err := s.LegacyApplyCircuit(sc); err != nil {
					return err
				}
				legacyOut = s
			}
			return nil
		}, &err)
		if err != nil {
			return nil, err
		}
		kernelSweepSec := timedBest(3, func() error {
			for r := 0; r < sReps; r++ {
				s := bases[r].Copy()
				if err := s.ApplyCircuit(sc); err != nil {
					return err
				}
				kernelOut = s
			}
			return nil
		}, &err)
		if err != nil {
			return nil, err
		}
		prog, err := sim.Fuse(sc, sQubits)
		if err != nil {
			return nil, err
		}
		fusedSweepSec := timedBest(3, func() error {
			for r := 0; r < sReps; r++ {
				s := bases[r].Copy()
				if err := prog.Run(s, 1); err != nil {
					return err
				}
				fusedOut = s
			}
			return nil
		}, &err)
		if err != nil {
			return nil, err
		}
		var fusedParSec float64
		if sz.suffix != "" {
			var parOut *sim.State
			fusedParSec = timedBest(3, func() error {
				for r := 0; r < sReps; r++ {
					s := bases[r].Copy()
					if err := prog.Run(s, 0); err != nil {
						return err
					}
					parOut = s
				}
				return nil
			}, &err)
			if err != nil {
				return nil, err
			}
			// Any worker count must reproduce the serial sweep bit-exactly.
			for i := uint64(0); i < 1<<sQubits; i++ {
				if parOut.Amplitude(i) != fusedOut.Amplitude(i) {
					report.Identical = false
					break
				}
			}
		}
		for i := uint64(0); i < 1<<sQubits; i++ {
			if legacyOut.Amplitude(i) != kernelOut.Amplitude(i) {
				report.Identical = false
				break
			}
		}
		// Fusion reorders float products, so the fused arm is
		// tolerance-checked.
		if legacyOut.Fidelity(fusedOut) < 1-1e-9 {
			report.Identical = false
		}
		report.Runs = append(report.Runs,
			KernelBenchRun{Name: "dense-sweep" + sz.suffix, Arm: "legacy", Qubits: sQubits, Gates: sGates, Reps: sReps, WallSeconds: legacySweepSec},
			KernelBenchRun{Name: "dense-sweep" + sz.suffix, Arm: "unrolled", Qubits: sQubits, Gates: sGates, Reps: sReps, WallSeconds: kernelSweepSec},
			KernelBenchRun{Name: "dense-sweep" + sz.suffix, Arm: "fused", Qubits: sQubits, Gates: sGates, Reps: sReps, WallSeconds: fusedSweepSec},
		)
		if sz.suffix == "" {
			if fusedSweepSec > 0 {
				report.DenseSweepSpeedup = legacySweepSec / fusedSweepSec
			}
			if kernelSweepSec > 0 {
				report.UnrolledSweepSpeedup = legacySweepSec / kernelSweepSec
			}
		} else {
			if fusedSweepSec > 0 {
				report.DenseSweep16Speedup = legacySweepSec / fusedSweepSec
			}
			if fusedParSec > 0 {
				report.DenseSweep16ParSpeedup = legacySweepSec / fusedParSec
			}
			report.Runs = append(report.Runs,
				KernelBenchRun{Name: "dense-sweep" + sz.suffix, Arm: "fused-par", Qubits: sQubits, Gates: sGates, Reps: sReps, WallSeconds: fusedParSec})
		}
	}
	return report, nil
}

// WriteText prints a human-readable summary.
func (r *KernelBenchReport) WriteText(w io.Writer) {
	fmt.Fprintf(w, "Kernel micro-benchmark (seed %d, GOMAXPROCS %d, NumCPU %d)\n", r.Seed, r.GOMAXPROCS, r.NumCPU)
	fmt.Fprintf(w, "%-18s %-8s %7s %6s %6s %12s\n", "workload", "arm", "qubits", "gates", "reps", "seconds")
	for _, run := range r.Runs {
		fmt.Fprintf(w, "%-18s %-8s %7d %6d %6d %12.4f\n",
			run.Name, run.Arm, run.Qubits, run.Gates, run.Reps, run.WallSeconds)
	}
	fmt.Fprintf(w, "route stochastic speedup (legacy/new):     %.2fx\n", r.RouteStochasticSpeedup)
	fmt.Fprintf(w, "route lookahead speedup (legacy/new):      %.2fx\n", r.RouteLookaheadSpeedup)
	fmt.Fprintf(w, "dense sweep speedup (legacy/fused, 12q):   %.2fx\n", r.DenseSweepSpeedup)
	fmt.Fprintf(w, "unrolled sweep speedup (legacy/new, 12q):  %.2fx\n", r.UnrolledSweepSpeedup)
	fmt.Fprintf(w, "dense sweep speedup (legacy/fused, 16q):   %.2fx\n", r.DenseSweep16Speedup)
	fmt.Fprintf(w, "dense sweep speedup (legacy/engine, 16q):  %.2fx at %d workers\n", r.DenseSweep16ParSpeedup, r.GOMAXPROCS)
}
