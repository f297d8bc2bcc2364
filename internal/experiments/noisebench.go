package experiments

import (
	"fmt"
	"io"

	"trios/internal/benchmarks"
	"trios/internal/compiler"
	"trios/internal/device"
	"trios/internal/noise"
	"trios/internal/topo"
)

// NoiseBenchRow is one (benchmark, topology) cell of the noise-aware sweep:
// the same program compiled twice under one calibration — once with the
// Uniform cost model (the noise-blind control, byte-identical to legacy
// compilation) and once with the Noise model — and evaluated under the same
// calibration improved by the report's factor (the paper's forward-looking
// §5.2 setting).
type NoiseBenchRow struct {
	Benchmark   string `json:"benchmark"`
	Topology    string `json:"topology"`
	Calibration string `json:"calibration"`

	UniformTwoQubit int `json:"uniform_two_qubit"`
	NoiseTwoQubit   int `json:"noise_two_qubit"`
	UniformSwaps    int `json:"uniform_swaps"`
	NoiseSwaps      int `json:"noise_swaps"`

	UniformSuccess float64 `json:"uniform_success"`
	NoiseSuccess   float64 `json:"noise_success"`
	// Ratio is noise / uniform success (the Fig. 11 shape applied to the
	// cost-model comparison); 0 when the uniform arm's success underflows.
	Ratio float64 `json:"ratio,omitempty"`
}

// NoiseBenchReport is the BENCH_noise.json document.
type NoiseBenchReport struct {
	Seed int64 `json:"seed"`
	// Improvement is the error-improvement factor of the evaluation model
	// (routing always uses the raw calibration, as a real compiler would).
	Improvement float64         `json:"improvement"`
	Short       bool            `json:"short,omitempty"`
	Rows        []NoiseBenchRow `json:"rows"`

	// MeanUniform and MeanNoise are arithmetic means of the per-cell
	// success estimates; NoiseWins counts cells where the noise arm is
	// strictly better and Ties where the two arms compiled to the same
	// estimate. GeoMeanRatio aggregates the per-cell ratios the way the
	// paper's figure captions do.
	Cells        int     `json:"cells"`
	MeanUniform  float64 `json:"mean_uniform"`
	MeanNoise    float64 `json:"mean_noise"`
	GeoMeanRatio float64 `json:"geomean_ratio"`
	NoiseWins    int     `json:"noise_wins"`
	Ties         int     `json:"ties"`
	// Note flags coverage caveats (e.g. cells whose uniform arm underflowed
	// and were excluded from the geomean) instead of silently dropping them.
	Note string `json:"note,omitempty"`
}

// noiseBenchTopologies are the registry names of the swept devices; every
// one has a registry calibration (ForDevice).
func noiseBenchTopologies(short bool) []string {
	if short {
		return []string{"johannesburg", "grid"}
	}
	return []string{"johannesburg", "grid", "line", "clusters"}
}

func noiseBenchBenchmarks(short bool) []benchmarks.Benchmark {
	all := benchmarks.All()
	if !short {
		return all
	}
	var out []benchmarks.Benchmark
	for _, b := range all {
		switch b.Name {
		case "cnx_inplace-4", "incrementer_borrowedbit-5", "grovers-9", "qft_adder-16":
			out = append(out, b)
		}
	}
	return out
}

// RunNoiseBench compiles the benchmark suite across the paper topologies
// twice per cell — Uniform vs Noise cost model under each device's registry
// calibration — and reports per-cell and aggregate estimated success. Both
// arms run the direct router with greedy placement (the strongest heuristic,
// so the comparison isolates the cost model), fanned across the batch
// engine's worker pool.
func RunNoiseBench(short bool, seed int64) (*NoiseBenchReport, error) {
	const improvement = 20
	type cell struct {
		bench benchmarks.Benchmark
		topo  string
		graph *topo.Graph
		cal   *device.Calibration
		eval  *device.Calibration
	}
	var cells []cell
	var jobs []compiler.Job
	for _, tn := range noiseBenchTopologies(short) {
		g, err := topo.ByName(tn)
		if err != nil {
			return nil, err
		}
		cal, err := device.ForDevice(tn)
		if err != nil {
			return nil, err
		}
		eval := cal.Improved(improvement)
		for _, b := range noiseBenchBenchmarks(short) {
			input, err := b.Build()
			if err != nil {
				return nil, fmt.Errorf("experiments: %s: %w", b.Name, err)
			}
			cells = append(cells, cell{bench: b, topo: tn, graph: g, cal: cal, eval: eval})
			for _, arm := range []string{"uniform", "noise"} {
				opts := compiler.Options{
					Pipeline:    compiler.TriosPipeline,
					Placement:   compiler.PlaceGreedy,
					Seed:        seed,
					Calibration: cal,
				}
				if arm == "uniform" {
					opts.CostModel = device.Uniform{}
				}
				jobs = append(jobs, compiler.Job{
					ID:    fmt.Sprintf("%s %s on %s", b.Name, arm, tn),
					Input: input,
					Graph: g,
					Opts:  opts,
				})
			}
		}
	}
	rs, err := runBatch(jobs)
	if err != nil {
		return nil, err
	}
	report := &NoiseBenchReport{Seed: seed, Improvement: improvement, Short: short}
	var ratios []float64
	for i, c := range cells {
		uni, noi := rs[2*i], rs[2*i+1]
		if uni.Err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", uni.Job.ID, uni.Err)
		}
		if noi.Err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", noi.Job.ID, noi.Err)
		}
		if err := uni.Result.Verify(); err != nil {
			return nil, err
		}
		if err := noi.Result.Verify(); err != nil {
			return nil, err
		}
		pu, _, err := noise.SuccessWithCalibration(uni.Result.Physical, c.eval, noise.CoherencePerQubit)
		if err != nil {
			return nil, err
		}
		pn, _, err := noise.SuccessWithCalibration(noi.Result.Physical, c.eval, noise.CoherencePerQubit)
		if err != nil {
			return nil, err
		}
		row := NoiseBenchRow{
			Benchmark:       c.bench.Name,
			Topology:        c.topo,
			Calibration:     c.cal.Name,
			UniformTwoQubit: uni.Result.TwoQubitGates(),
			NoiseTwoQubit:   noi.Result.TwoQubitGates(),
			UniformSwaps:    uni.Result.SwapsAdded,
			NoiseSwaps:      noi.Result.SwapsAdded,
			UniformSuccess:  pu,
			NoiseSuccess:    pn,
		}
		if pu > 0 {
			row.Ratio = pn / pu
			ratios = append(ratios, row.Ratio)
		}
		report.Rows = append(report.Rows, row)
		report.Cells++
		report.MeanUniform += pu
		report.MeanNoise += pn
		switch {
		case pn > pu:
			report.NoiseWins++
		case pn == pu:
			report.Ties++
		}
	}
	if report.Cells > 0 {
		report.MeanUniform /= float64(report.Cells)
		report.MeanNoise /= float64(report.Cells)
	}
	if len(ratios) > 0 {
		report.GeoMeanRatio = GeoMean(ratios)
	}
	if len(ratios) < report.Cells {
		report.Note = fmt.Sprintf("%d/%d cells underflowed the uniform arm and are excluded from geomean_ratio",
			report.Cells-len(ratios), report.Cells)
	}
	return report, nil
}

// WriteText prints a human-readable summary table.
func (r *NoiseBenchReport) WriteText(w io.Writer) {
	fmt.Fprintf(w, "noise-aware vs uniform cost model (seed %d, evaluation at %gx improved calibration)\n",
		r.Seed, r.Improvement)
	fmt.Fprintf(w, "%-26s %-13s %10s %10s %10s %8s\n", "benchmark", "topology", "uniform", "noise", "ratio", "swaps")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-26s %-13s %10.3g %10.3g %10.3g %4d/%-4d\n",
			row.Benchmark, row.Topology, row.UniformSuccess, row.NoiseSuccess, row.Ratio,
			row.UniformSwaps, row.NoiseSwaps)
	}
	fmt.Fprintf(w, "\ncells %d  noise wins %d  ties %d\n", r.Cells, r.NoiseWins, r.Ties)
	fmt.Fprintf(w, "mean success: uniform %.4g  noise %.4g  (%.2fx)\n",
		r.MeanUniform, r.MeanNoise, safeRatio(r.MeanNoise, r.MeanUniform))
	fmt.Fprintf(w, "geomean per-cell ratio: %.3g\n", r.GeoMeanRatio)
	if r.Note != "" {
		fmt.Fprintf(w, "note: %s\n", r.Note)
	}
}

func safeRatio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
