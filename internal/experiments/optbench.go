package experiments

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"trios/internal/benchmarks"
	"trios/internal/circuit"
	"trios/internal/compiler"
	"trios/internal/sim"
	"trios/internal/template"
	"trios/internal/topo"
)

// OptBenchRow is one (benchmark, topology, pipeline) cell of the optimizer
// comparison: the program compiled with -optimize under the saturating
// rewrite engine, next to the counts the retired legacy pairwise cancel loop
// reached on the same cell (committed in optbench_legacy.json).
type OptBenchRow struct {
	Benchmark string `json:"benchmark"`
	Topology  string `json:"topology"`
	Pipeline  string `json:"pipeline"` // baseline | trios

	LegacyTwoQubit   int `json:"legacy_two_qubit"`
	SaturateTwoQubit int `json:"saturate_two_qubit"`
	LegacyTotal      int `json:"legacy_total"`
	SaturateTotal    int `json:"saturate_total"`

	// EquivalenceChecked / EquivalenceOK record the per-cell statevector
	// verification of the compiled circuit against the logical source.
	EquivalenceChecked bool `json:"equivalence_checked,omitempty"`
	EquivalenceOK      bool `json:"equivalence_ok,omitempty"`
}

// OptBenchTemplateRow is one template-covered benchmark's cold-compile
// latency with and without a warmed template store.
type OptBenchTemplateRow struct {
	Benchmark string  `json:"benchmark"`
	Topology  string  `json:"topology"`
	ColdNanos int64   `json:"cold_nanos"`
	WarmNanos int64   `json:"warm_nanos"`
	Speedup   float64 `json:"speedup"`
	// Outcome is the template store's serving path: "hit" (exact fragment)
	// or "stitched" (fragment prefix + suffix compile).
	Outcome string `json:"outcome"`
}

// OptBenchReport is the BENCH_optimize.json document its Check holds to the
// optimizer floors: per-cell two-qubit counts against the committed legacy counts
// across the Table-1 grid plus template-warm cold-compile latency.
type OptBenchReport struct {
	Seed  int64         `json:"seed"`
	Short bool          `json:"short,omitempty"`
	Rows  []OptBenchRow `json:"rows"`

	// Cells counts grid cells; SaturateBetter/SaturateWorse/Equal partition
	// them by two-qubit-count comparison against the committed legacy counts.
	Cells          int `json:"cells"`
	SaturateBetter int `json:"saturate_better"`
	SaturateWorse  int `json:"saturate_worse"`
	Equal          int `json:"equal"`

	// EquivalenceOK is true when every cell simulated equivalent to its
	// logical source; EquivalenceChecked counts the cells that were verified.
	EquivalenceChecked int  `json:"equivalence_checked"`
	EquivalenceOK      bool `json:"equivalence_ok"`

	TemplateRows []OptBenchTemplateRow `json:"template_rows"`
	// TemplateMinSpeedup is the smallest per-benchmark warm speedup — the
	// number Check holds at >= 1.5x.
	TemplateMinSpeedup     float64 `json:"template_min_speedup"`
	TemplateGeoMeanSpeedup float64 `json:"template_geomean_speedup"`
}

func optBenchBenchmarks(short bool) []benchmarks.Benchmark {
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

func optBenchTopologies(short bool) []*topo.Graph {
	if short {
		return []*topo.Graph{topo.Johannesburg(), topo.Line20()}
	}
	return topo.PaperTopologies()
}

// templateBenchNames are the template-covered workloads the latency
// comparison times: the CNX family, the QFT adder, and a Toffoli-heavy
// search circuit.
func templateBenchNames(short bool) []string {
	if short {
		return []string{"cnx_inplace-4", "qft_adder-16"}
	}
	return []string{"cnx_dirty-11", "cnx_inplace-4", "cnx_logancilla-19", "qft_adder-16", "grovers-9"}
}

// legacyCellKey identifies one optimizer-grid cell in the committed legacy
// table.
type legacyCellKey struct{ benchmark, topology, pipeline string }

// legacyCounts is one cell's compiled size under the retired legacy cancel
// loop.
type legacyCounts struct {
	TwoQubit int `json:"legacy_two_qubit"`
	Total    int `json:"legacy_total"`
}

// optBenchLegacyJSON is the legacy cancel loop's per-cell two-qubit and total
// gate counts over the full Table-1 grid at seed 2021, generated while that
// optimizer still existed. Short mode reads a subset of it.
//
//go:embed optbench_legacy.json
var optBenchLegacyJSON []byte

// loadLegacyCounts decodes the committed legacy table for seed; the table
// only exists for the seed it was generated at.
func loadLegacyCounts(seed int64) (map[legacyCellKey]legacyCounts, error) {
	var doc struct {
		Seed int64 `json:"seed"`
		Rows []struct {
			Benchmark string `json:"benchmark"`
			Topology  string `json:"topology"`
			Pipeline  string `json:"pipeline"`
			legacyCounts
		} `json:"rows"`
	}
	if err := json.Unmarshal(optBenchLegacyJSON, &doc); err != nil {
		return nil, fmt.Errorf("experiments: decoding legacy counts: %w", err)
	}
	if seed != doc.Seed {
		return nil, fmt.Errorf("experiments: the optimizer benchmark compares against legacy counts committed for seed %d only; got seed %d", doc.Seed, seed)
	}
	m := make(map[legacyCellKey]legacyCounts, len(doc.Rows))
	for _, r := range doc.Rows {
		m[legacyCellKey{r.Benchmark, r.Topology, r.Pipeline}] = r.legacyCounts
	}
	return m, nil
}

// RunOptBench compiles the Table-1 grid (benchmark x paper topology x
// {baseline, trios} pipeline) with -optimize and reports per-cell two-qubit
// counts against the committed legacy counts, then times cold compiles of
// the template-covered benchmarks against a warmed template store. Every
// cell is statevector-verified (one random-state trial; the compiler's own
// property tests carry the heavier multi-trial verification).
func RunOptBench(short bool, seed int64) (*OptBenchReport, error) {
	legacy, err := loadLegacyCounts(seed)
	if err != nil {
		return nil, err
	}
	type cell struct {
		bench benchmarks.Benchmark
		input *circuit.Circuit
		graph *topo.Graph
		pipe  string
	}
	var cells []cell
	var jobs []compiler.Job
	bs := optBenchBenchmarks(short)
	inputs := make(map[string]*circuit.Circuit, len(bs))
	for _, b := range bs {
		c, err := b.Build()
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", b.Name, err)
		}
		inputs[b.Name] = c
	}
	for _, b := range bs {
		for _, g := range optBenchTopologies(short) {
			for _, pipe := range []compiler.Pipeline{compiler.Conventional, compiler.TriosPipeline} {
				cells = append(cells, cell{bench: b, input: inputs[b.Name], graph: g, pipe: pipe.String()})
				opts := pairOptions(pipe, seed)
				opts.Optimize = true
				jobs = append(jobs, compiler.Job{
					ID:    fmt.Sprintf("%s %v on %s", b.Name, pipe, g.Name()),
					Input: inputs[b.Name],
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
	report := &OptBenchReport{Seed: seed, Short: short, EquivalenceOK: true}
	for i, c := range cells {
		sat := rs[i]
		if sat.Err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", sat.Job.ID, sat.Err)
		}
		if err := sat.Result.Verify(); err != nil {
			return nil, err
		}
		leg, ok := legacy[legacyCellKey{c.bench.Name, c.graph.Name(), c.pipe}]
		if !ok {
			return nil, fmt.Errorf("experiments: no committed legacy counts for %s", sat.Job.ID)
		}
		n := c.input.NumQubits
		equivalent, err := sim.CompiledEquivalent(c.input, sat.Result.Physical, c.graph.NumQubits(),
			sat.Result.Initial[:n], sat.Result.Final[:n], 1, seed)
		if err != nil {
			return nil, fmt.Errorf("experiments: verifying %s: %w", sat.Job.ID, err)
		}
		row := OptBenchRow{
			Benchmark:          c.bench.Name,
			Topology:           c.graph.Name(),
			Pipeline:           c.pipe,
			LegacyTwoQubit:     leg.TwoQubit,
			SaturateTwoQubit:   sat.Result.TwoQubitGates(),
			LegacyTotal:        leg.Total,
			SaturateTotal:      len(sat.Result.Physical.Gates),
			EquivalenceChecked: true,
			EquivalenceOK:      equivalent,
		}
		report.EquivalenceChecked++
		if !equivalent {
			report.EquivalenceOK = false
		}
		report.Rows = append(report.Rows, row)
		report.Cells++
		switch {
		case row.SaturateTwoQubit < row.LegacyTwoQubit:
			report.SaturateBetter++
		case row.SaturateTwoQubit > row.LegacyTwoQubit:
			report.SaturateWorse++
		default:
			report.Equal++
		}
	}

	if err := runTemplateBench(report, short, seed); err != nil {
		return nil, err
	}
	return report, nil
}

// runTemplateBench times cold compiles of the template-covered benchmarks
// with and without a warmed template store on Johannesburg. Each arm takes
// the best of three runs so one scheduler hiccup cannot fail a floor.
func runTemplateBench(report *OptBenchReport, short bool, seed int64) error {
	g := topo.Johannesburg()
	opts := compiler.Options{
		Pipeline:  compiler.TriosPipeline,
		Placement: compiler.PlaceGreedy,
		Optimize:  true,
		Seed:      seed,
	}
	var ts []template.Template
	names := templateBenchNames(short)
	inputs := make(map[string]*circuit.Circuit, len(names))
	for _, name := range names {
		b, err := benchmarks.ByName(name)
		if err != nil {
			return err
		}
		c, err := b.Build()
		if err != nil {
			return err
		}
		inputs[name] = c
		t, err := template.New(name, c)
		if err != nil {
			return err
		}
		ts = append(ts, t)
	}
	store := template.NewStore(template.NewLibrary(ts...))
	if _, err := store.Precompile(context.Background(), g, opts); err != nil {
		return err
	}
	warmOpts := opts
	warmOpts.Templates = store

	var speedups []float64
	for _, name := range names {
		input := inputs[name]
		cold, err := bestOfCompile(input, g, opts, 3)
		if err != nil {
			return err
		}
		before := store.Stats()
		warm, err := bestOfCompile(input, g, warmOpts, 3)
		if err != nil {
			return err
		}
		after := store.Stats()
		outcome := "miss"
		switch {
		case after.Hits > before.Hits:
			outcome = "hit"
		case after.Stitched > before.Stitched:
			outcome = "stitched"
		}
		row := OptBenchTemplateRow{
			Benchmark: name,
			Topology:  g.Name(),
			ColdNanos: cold.Nanoseconds(),
			WarmNanos: warm.Nanoseconds(),
			Outcome:   outcome,
		}
		if warm > 0 {
			row.Speedup = float64(cold) / float64(warm)
			speedups = append(speedups, row.Speedup)
		}
		report.TemplateRows = append(report.TemplateRows, row)
		if report.TemplateMinSpeedup == 0 || row.Speedup < report.TemplateMinSpeedup {
			report.TemplateMinSpeedup = row.Speedup
		}
	}
	if len(speedups) > 0 {
		report.TemplateGeoMeanSpeedup = GeoMean(speedups)
	}
	return nil
}

// bestOfCompile compiles input reps times and returns the fastest wall time.
func bestOfCompile(input *circuit.Circuit, g *topo.Graph, opts compiler.Options, reps int) (time.Duration, error) {
	best := time.Duration(0)
	for i := 0; i < reps; i++ {
		start := time.Now()
		if _, err := compiler.Compile(input, g, opts); err != nil {
			return 0, err
		}
		d := time.Since(start)
		if best == 0 || d < best {
			best = d
		}
	}
	return best, nil
}

// WriteText prints a human-readable summary: per-cell counts and the
// template latency table.
func (r *OptBenchReport) WriteText(w io.Writer) {
	fmt.Fprintf(w, "saturating rewrite engine vs committed legacy cancel-loop counts (seed %d)\n", r.Seed)
	fmt.Fprintf(w, "%-26s %-13s %-9s %8s %9s %7s\n", "benchmark", "topology", "pipeline", "legacy2q", "saturate2q", "delta")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-26s %-13s %-9s %8d %9d %+7d\n",
			row.Benchmark, row.Topology, row.Pipeline,
			row.LegacyTwoQubit, row.SaturateTwoQubit, row.SaturateTwoQubit-row.LegacyTwoQubit)
	}
	fmt.Fprintf(w, "\ncells %d  saturate better %d  equal %d  worse %d\n",
		r.Cells, r.SaturateBetter, r.Equal, r.SaturateWorse)
	fmt.Fprintf(w, "equivalence: %d cells checked, all ok = %v\n",
		r.EquivalenceChecked, r.EquivalenceOK)
	fmt.Fprintf(w, "\ntemplate-warm cold-compile latency (johannesburg)\n")
	fmt.Fprintf(w, "%-26s %12s %12s %8s %9s\n", "benchmark", "cold", "warm", "speedup", "outcome")
	for _, row := range r.TemplateRows {
		fmt.Fprintf(w, "%-26s %12s %12s %7.1fx %9s\n",
			row.Benchmark, time.Duration(row.ColdNanos), time.Duration(row.WarmNanos), row.Speedup, row.Outcome)
	}
	fmt.Fprintf(w, "template speedup: min %.1fx  geomean %.1fx\n", r.TemplateMinSpeedup, r.TemplateGeoMeanSpeedup)
}
