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
//	experiments -bench compile          # writes BENCH_compile.json
//	experiments -bench stream -short     # writes BENCH_stream.json
//
// -bench runs one benchmark, writes its report to BENCH_<name>.json, prints
// a text summary, and exits 1 if the report misses any of its floors
// (internal/experiments/floors.go).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
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

// benchNames lists the -bench values; each writes BENCH_<name>.json.
var benchNames = []string{"compile", "sim", "noise", "optimize", "stream"}

// benchReport is what every -bench report offers the driver.
type benchReport interface {
	WriteText(io.Writer)
	Check() error
}

// newBench runs the named benchmark; an unknown name fails before any work.
func newBench(name string, short bool, workers int, seed int64) (benchReport, error) {
	switch name {
	case "compile":
		return experiments.RunCompileBench(workers, seed)
	case "sim":
		return experiments.RunSimBench(workers, seed)
	case "noise":
		return experiments.RunNoiseBench(short, seed)
	case "optimize":
		return experiments.RunOptBench(short, seed)
	case "stream":
		return experiments.RunStreamBench(experiments.StreamBenchOptions{
			Seed:    seed,
			Short:   short,
			RSSExec: streamRSSExec,
		})
	}
	return nil, fmt.Errorf("unknown -bench %q; want one of %s", name, strings.Join(benchNames, ", "))
}

// runBench runs one benchmark, writes BENCH_<name>.json and the text
// summary, and returns the report's floor violations.
func runBench(name string, short bool, workers int, seed int64) error {
	report, err := newBench(name, short, workers, seed)
	if err != nil {
		return err
	}
	path := "BENCH_" + name + ".json"
	if err := writeJSONFile(path, report); err != nil {
		return err
	}
	report.WriteText(os.Stdout)
	if err := report.Check(); err != nil {
		return fmt.Errorf("%s misses its floors:\n%w", path, err)
	}
	return nil
}

// writeJSONFile writes report to path as indented JSON.
func writeJSONFile(path string, report any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := experiments.WriteJSON(f, report); err != nil {
		f.Close()
		return err
	}
	return f.Close()
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
		bench       = flag.String("bench", "", "run only this benchmark ("+strings.Join(benchNames, ", ")+"), write its report to BENCH_<name>.json and a summary to stdout, and exit 1 if it misses a floor")
		short       = flag.Bool("short", false, "shrink the noise, optimize and stream benchmarks to CI-sized subsets")
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

	if *bench != "" {
		if err := runBench(*bench, *short, *workers, *seed); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	if *jsonPath != "" {
		report, err := experiments.BuildReport(*triplets, *shots, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := writeJSONFile(*jsonPath, report); err != nil {
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
