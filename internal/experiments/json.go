package experiments

import (
	"encoding/json"
	"fmt"
	"io"

	"trios/internal/benchmarks"
	"trios/internal/noise"
	"trios/internal/topo"
)

// Report bundles every experiment's results in a machine-readable form, so
// downstream plotting or regression tooling can consume one JSON document
// instead of scraping the printed tables.
type Report struct {
	Seed     int64              `json:"seed"`
	Table1   []Table1Row        `json:"table1,omitempty"`
	Fig6_7   []TripletJSON      `json:"toffoli_experiment,omitempty"`
	Fig9_11  []BenchResult      `json:"benchmark_sweep,omitempty"`
	Fig12    []SensitivityPoint `json:"sensitivity,omitempty"`
	Scaling  []ScalingPoint     `json:"scaling,omitempty"`
	Ablation []AblationResult   `json:"ablation,omitempty"`
}

// Table1Row pairs paper and measured counts for one benchmark.
type Table1Row struct {
	Name          string `json:"name"`
	Qubits        int    `json:"qubits"`
	PaperToffolis int    `json:"paper_toffolis"`
	Toffolis      int    `json:"toffolis"`
	PaperCNOTs    int    `json:"paper_cnots"`
	CNOTs         int    `json:"cnots"`
}

// TripletJSON flattens a TripletResult for serialization.
type TripletJSON struct {
	Triplet  [3]int     `json:"triplet"`
	Distance int        `json:"distance"`
	Configs  []string   `json:"configs"`
	CNOTs    [4]int     `json:"cnots"`
	Success  [4]float64 `json:"success"`
	Sampled  [4]float64 `json:"sampled"`
}

// BuildReport runs the full evaluation and assembles the bundle. The knobs
// mirror cmd/experiments' defaults; shots applies to the Toffoli runs.
func BuildReport(triplets, shots int, seed int64) (*Report, error) {
	r := &Report{Seed: seed}

	for _, b := range benchmarks.All() {
		m, err := b.Measure()
		if err != nil {
			return nil, err
		}
		r.Table1 = append(r.Table1, Table1Row{
			Name: b.Name, Qubits: m.Qubits,
			PaperToffolis: b.PaperToffolis, Toffolis: m.Toffolis,
			PaperCNOTs: b.PaperCNOTs, CNOTs: m.CNOTs,
		})
	}

	g := topo.Johannesburg()
	trips := RandomTriplets(g, triplets, seed)
	toffoli, err := ToffoliExperiment(g, trips, noise.Johannesburg0819(), shots, seed)
	if err != nil {
		return nil, err
	}
	labels := make([]string, len(ToffoliConfigs))
	for i, c := range ToffoliConfigs {
		labels[i] = c.Label
	}
	for _, tr := range toffoli {
		r.Fig6_7 = append(r.Fig6_7, TripletJSON{
			Triplet: tr.Triplet, Distance: tr.Distance, Configs: labels,
			CNOTs: tr.CNOTs, Success: tr.Success, Sampled: tr.Sampled,
		})
	}

	sweep, err := BenchmarkSweep(DefaultModel(), seed)
	if err != nil {
		return nil, err
	}
	r.Fig9_11 = sweep

	base := noise.Johannesburg0819()
	base.ReadoutError = 0
	base.Coherence = noise.CoherencePerQubit
	sens, err := Sensitivity(base, DefaultFactors(), seed)
	if err != nil {
		return nil, err
	}
	r.Fig12 = sens

	scale, err := Scaling(seed)
	if err != nil {
		return nil, err
	}
	r.Scaling = scale

	for _, bench := range []string{"cnx_logancilla-19", "grovers-9"} {
		ab, err := Ablation(bench, seed)
		if err != nil {
			return nil, err
		}
		r.Ablation = append(r.Ablation, ab...)
	}
	return r, nil
}

// WriteJSON serializes a report (this package's Report or any BENCH_*.json
// report) with stable indentation.
func WriteJSON(w io.Writer, report any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		return fmt.Errorf("experiments: encoding %T: %w", report, err)
	}
	return nil
}
