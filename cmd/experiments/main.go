// Command experiments regenerates the paper's tables and figures.
//
// Compilation-heavy experiments fan out across a worker pool; -workers
// caps the parallelism (default: GOMAXPROCS). Results are identical for
// any worker count.
//
// Usage:
//
//	experiments -exp all
//	experiments -exp table1 -workers 8
//	experiments -exp fig1,fig6,fig7,fig8,fig9,fig10,fig11,fig12
//	experiments -triplets 35 -shots 8192 -seed 2021
//	experiments -exp mc-toffoli,mc-rp -mc-shots 128   # trajectory Monte-Carlo suites
//	experiments -bench-json BENCH_compile.json
//	experiments -sim-bench BENCH_sim.json
//	experiments -stream-bench BENCH_stream.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strings"

	"trios/internal/experiments"
	"trios/internal/noise"
	"trios/internal/topo"
	"trios/internal/version"
)

// streamRSSChildEnv carries the parameters of a streaming-compile RSS
// sample; when set, the process runs only that compile, prints its peak RSS
// in bytes, and exits. RunStreamBench self-execs with it so each RSS sample
// is a fresh address space.
const streamRSSChildEnv = "TRIOS_STREAM_RSS_CHILD"

func streamRSSChild(raw string) {
	var p experiments.StreamRSSParams
	if err := json.Unmarshal([]byte(raw), &p); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	rss, err := experiments.StreamRSSChild(p)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println(rss)
	os.Exit(0)
}

// streamRSSExec runs one RSS sample in a child copy of this binary.
func streamRSSExec(p experiments.StreamRSSParams) (int64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	raw, err := json.Marshal(p)
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(self)
	cmd.Env = append(os.Environ(), streamRSSChildEnv+"="+string(raw))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("stream RSS child: %w", err)
	}
	var rss int64
	if _, err := fmt.Sscan(strings.TrimSpace(string(out)), &rss); err != nil {
		return 0, fmt.Errorf("stream RSS child output %q: %w", out, err)
	}
	return rss, nil
}

func main() {
	if raw := os.Getenv(streamRSSChildEnv); raw != "" {
		streamRSSChild(raw)
	}
	var (
		exp         = flag.String("exp", "all", "comma-separated experiments: table1, fig1, fig6, fig7, fig8, fig9, fig10, fig11, fig12, all, or the opt-in trajectory suites mc-toffoli, mc-rp (not included in all)")
		triplets    = flag.Int("triplets", 35, "random qubit triples for the Toffoli experiments (fig6/fig7; fig8 uses 99)")
		shots       = flag.Int("shots", 8192, "shots per Toffoli configuration")
		seed        = flag.Int64("seed", 2021, "random seed")
		jsonPath    = flag.String("json", "", "also write all results as JSON to this file")
		workers     = flag.Int("workers", 0, "parallel compilation workers (0 = GOMAXPROCS)")
		benchJSON   = flag.String("bench-json", "", "run only the compile-path benchmark and write its JSON report here (e.g. BENCH_compile.json)")
		simJSON     = flag.String("sim-bench", "", "run only the simulation-engine benchmark and write its JSON report here (e.g. BENCH_sim.json); a text summary goes to stdout")
		kernelJSON  = flag.String("kernel-bench", "", "run only the kernel micro-benchmark (legacy vs branch-free arms of the route delta-scoring and dense sweep hot loops) and write its JSON report here (e.g. BENCH_kernels.json); a text summary goes to stdout")
		noiseJSON   = flag.String("noise-bench", "", "run only the noise-aware sweep (uniform vs noise cost model under per-device calibrations) and write its JSON report here (e.g. BENCH_noise.json); a text summary goes to stdout")
		noiseShort  = flag.Bool("noise-short", false, "shrink the noise-aware sweep to a CI-sized subset of benchmarks and topologies")
		optJSON     = flag.String("opt-bench", "", "run only the optimizer benchmark (saturating rewrite engine vs committed legacy cancel-loop counts across the Table-1 grid, plus template-warm cold-compile latency) and write its JSON report here (e.g. BENCH_optimize.json); a text summary goes to stdout")
		optShort    = flag.Bool("opt-short", false, "shrink the optimizer benchmark to a CI-sized subset of benchmarks and topologies")
		streamJSON  = flag.String("stream-bench", "", "run only the streaming-compile benchmark (serial vs pipelined window drivers plus subprocess peak-RSS samples on generated million-gate streams) and write its JSON report here (e.g. BENCH_stream.json); a text summary goes to stdout")
		streamShort = flag.Bool("stream-short", false, "shrink the streaming benchmark to CI-sized gate counts")
		mcShots     = flag.Int("mc-shots", 64, "trajectory Monte-Carlo shots for the mc-toffoli/mc-rp experiments")
		mcTrips     = flag.Int("mc-triplets", 4, "random triplets for the mc-toffoli experiment")
		showVersion = flag.Bool("version", false, "print build version and exit")
	)
	flag.Parse()
	if *showVersion {
		fmt.Println(version.Get())
		return
	}
	experiments.Workers = *workers

	if *simJSON != "" {
		report, err := experiments.RunSimBench(*workers, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		f, err := os.Create(*simJSON)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := report.WriteJSON(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		report.WriteText(os.Stdout)
		if !report.Deterministic {
			fmt.Fprintln(os.Stderr, "sim bench: parallel paths diverged from serial results")
			os.Exit(1)
		}
		return
	}

	if *kernelJSON != "" {
		report, err := experiments.RunKernelBench(*seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		f, err := os.Create(*kernelJSON)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := report.WriteJSON(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		report.WriteText(os.Stdout)
		if !report.Identical {
			fmt.Fprintln(os.Stderr, "kernel bench: a branch-free arm diverged from its legacy arm")
			os.Exit(1)
		}
		return
	}

	if *streamJSON != "" {
		report, err := experiments.RunStreamBench(experiments.StreamBenchOptions{
			Seed:    *seed,
			Short:   *streamShort,
			RSSExec: streamRSSExec,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		f, err := os.Create(*streamJSON)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := report.WriteJSON(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		report.WriteText(os.Stdout)
		if !report.EquivalenceOK {
			fmt.Fprintln(os.Stderr, "stream bench: streaming output diverged from the monolithic golden arm")
			os.Exit(1)
		}
		if report.PeakRSSBytes > report.WindowBudgetBytes {
			fmt.Fprintln(os.Stderr, "stream bench: peak RSS exceeded the window budget")
			os.Exit(1)
		}
		return
	}

	if *noiseJSON != "" {
		report, err := experiments.RunNoiseBench(*noiseShort, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		f, err := os.Create(*noiseJSON)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := report.WriteJSON(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := report.WriteText(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if report.MeanNoise < report.MeanUniform {
			fmt.Fprintln(os.Stderr, "noise bench: noise-aware mean success fell below the uniform control")
			os.Exit(1)
		}
		return
	}

	if *optJSON != "" {
		report, err := experiments.RunOptBench(*optShort, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		f, err := os.Create(*optJSON)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := report.WriteJSON(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := report.WriteText(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if !report.EquivalenceOK {
			fmt.Fprintln(os.Stderr, "opt bench: a cell failed statevector equivalence")
			os.Exit(1)
		}
		if report.SaturateWorse > 0 {
			fmt.Fprintln(os.Stderr, "opt bench: the saturating engine regressed two-qubit counts vs the committed legacy counts")
			os.Exit(1)
		}
		return
	}

	if *benchJSON != "" {
		report, err := experiments.RunCompileBench(*workers, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		f, err := os.Create(*benchJSON)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := report.WriteJSON(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if !report.Deterministic {
			fmt.Fprintln(os.Stderr, "compile bench: serial and parallel drains diverged")
			os.Exit(1)
		}
		if report.SpeedupNote != "" {
			fmt.Printf("wrote %s (%d jobs, route %.3fs; %s)\n",
				*benchJSON, report.Runs[0].Jobs, report.RouteSeconds, report.SpeedupNote)
		} else {
			fmt.Printf("wrote %s (%d jobs, route %.3fs, %.2fx parallel speedup with %d workers)\n",
				*benchJSON, report.Runs[0].Jobs, report.RouteSeconds, report.Speedup, report.Runs[1].Workers)
		}
		return
	}

	if *jsonPath != "" {
		report, err := experiments.BuildReport(*triplets, *shots, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		f, err := os.Create(*jsonPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := report.WriteJSON(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *jsonPath)
	}

	want := map[string]bool{}
	for _, e := range strings.Split(*exp, ",") {
		want[strings.TrimSpace(e)] = true
	}
	all := want["all"]

	run := func(name string, f func() error) {
		if !all && !want[name] {
			return
		}
		fmt.Printf("==== %s ====\n", name)
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println()
	}

	out := os.Stdout
	g := topo.Johannesburg()

	run("table1", func() error { return experiments.WriteTable1(out) })
	run("fig1", func() error { return experiments.WriteFig1(out, *seed) })

	var toffoliResults []experiments.TripletResult
	needToffoli := all || want["fig6"] || want["fig7"]
	if needToffoli {
		// Default to the exact 35 triples from the paper's Figures 6-7;
		// -triplets N with N != 35 switches to seeded random triples.
		trips := experiments.PaperTriplets()
		if *triplets != len(trips) {
			trips = experiments.RandomTriplets(g, *triplets, *seed)
		}
		var err error
		toffoliResults, err = experiments.ToffoliExperiment(g, trips, noise.Johannesburg0819(), *shots, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	run("fig6", func() error { experiments.WriteFig6(out, toffoliResults); return nil })
	run("fig7", func() error { experiments.WriteFig7(out, toffoliResults); return nil })
	run("fig8", func() error {
		trips := experiments.RandomTriplets(g, 99, *seed+1)
		rs, err := experiments.ToffoliExperiment(g, trips, noise.Johannesburg0819(), *shots, *seed+1)
		if err != nil {
			return err
		}
		experiments.WriteFig8(out, rs)
		return nil
	})

	var sweep []experiments.BenchResult
	needSweep := all || want["fig9"] || want["fig10"] || want["fig11"]
	if needSweep {
		var err error
		sweep, err = experiments.BenchmarkSweep(experiments.DefaultModel(), *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	run("fig9", func() error { experiments.WriteFig9(out, sweep); return nil })
	run("fig10", func() error { experiments.WriteFig10(out, sweep); return nil })
	run("fig11", func() error { experiments.WriteFig11(out, sweep); return nil })

	run("ablation", func() error {
		for _, bench := range []string{"cnx_logancilla-19", "grovers-9", "cuccaro_adder-20"} {
			rs, err := experiments.Ablation(bench, *seed)
			if err != nil {
				return err
			}
			experiments.WriteAblation(out, rs)
			fmt.Println()
		}
		return nil
	})

	run("toffoli-topos", func() error {
		rs, err := experiments.ToffoliAcrossTopologies(*triplets, noise.Johannesburg0819(), *seed)
		if err != nil {
			return err
		}
		experiments.WriteToffoliTopos(out, rs)
		return nil
	})

	run("rp", func() error {
		rs, err := experiments.RelativePhase(experiments.DefaultModel(), *seed)
		if err != nil {
			return err
		}
		experiments.WriteRP(out, rs)
		return nil
	})

	run("scaling", func() error {
		points, err := experiments.Scaling(*seed)
		if err != nil {
			return err
		}
		experiments.WriteScaling(out, points)
		return nil
	})

	// Trajectory-backed suites run only when explicitly requested (they
	// are Monte-Carlo heavy and scale with -workers), never under "all".
	if want["mc-toffoli"] {
		fmt.Println("==== mc-toffoli ====")
		trips := experiments.RandomTriplets(g, *mcTrips, *seed)
		rs, err := experiments.ToffoliTrajectory(g, trips, noise.Johannesburg0819(), *mcShots, *seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mc-toffoli: %v\n", err)
			os.Exit(1)
		}
		experiments.WriteToffoliTrajectory(out, *mcShots, rs)
		fmt.Println()
	}
	if want["mc-rp"] {
		fmt.Println("==== mc-rp ====")
		rs, err := experiments.RPTrajectory(noise.Johannesburg0819(), 5, *mcShots, *seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mc-rp: %v\n", err)
			os.Exit(1)
		}
		experiments.WriteRPTrajectory(out, *mcShots, rs)
		fmt.Println()
	}

	run("fig12", func() error {
		base := noise.Johannesburg0819()
		base.ReadoutError = 0
		base.Coherence = noise.CoherencePerQubit
		points, err := experiments.Sensitivity(base, experiments.DefaultFactors(), *seed)
		if err != nil {
			return err
		}
		experiments.WriteFig12(out, points)
		return nil
	})
}
