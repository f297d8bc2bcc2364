package experiments

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// checker is every BENCH_*.json report type.
type checker interface{ Check() error }

func passingCompile() *CompileBenchReport {
	return &CompileBenchReport{EffectiveWorkers: 4, Speedup: 1.3, Deterministic: true}
}

func passingSim() *SimBenchReport {
	return &SimBenchReport{NumCPU: 4, EffectiveWorkers: 4, ParallelSpeedup: 1.5, Deterministic: true}
}

func passingNoise() *NoiseBenchReport {
	return &NoiseBenchReport{MeanUniform: 0.2, MeanNoise: 0.25, GeoMeanRatio: 1.2}
}

func passingOpt() *OptBenchReport {
	return &OptBenchReport{
		Rows:           []OptBenchRow{{Benchmark: "grovers-9", Topology: "line", Pipeline: "trios", LegacyTwoQubit: 10, SaturateTwoQubit: 9}},
		SaturateBetter: 9, EquivalenceChecked: 16, EquivalenceOK: true, TemplateMinSpeedup: 20,
	}
}

func passingStream() *StreamBenchReport {
	return &StreamBenchReport{NumCPU: 4, EquivalenceOK: true, PipelineVsSerialSpeedup: 1.5, PeakRSSBytes: 50 << 20, WindowBudgetBytes: 192 << 20}
}

// TestCheckFloors breaks one floor per case on an otherwise passing report:
// each must fail Check and name the field it broke. The first cases pin
// that the passing reports pass, and that the two speedup floors keyed on
// num_cpu are skipped on a single-core host.
func TestCheckFloors(t *testing.T) {
	cases := []struct {
		name   string
		report checker
		field  string // "" means Check must pass
	}{
		{"compile ok", passingCompile(), ""},
		{"sim ok", passingSim(), ""},
		{"noise ok", passingNoise(), ""},
		{"opt ok", passingOpt(), ""},
		{"stream ok", passingStream(), ""},
		{"sim single-core skips speedup floor", func() checker { r := passingSim(); r.NumCPU, r.ParallelSpeedup = 1, 0.8; return r }(), ""},
		{"stream single-core skips speedup floor", func() checker { r := passingStream(); r.NumCPU, r.PipelineVsSerialSpeedup = 1, 0.8; return r }(), ""},

		{"compile diverged", func() checker { r := passingCompile(); r.Deterministic = false; return r }(), "deterministic"},
		{"compile speedup suppressed", func() checker {
			r := passingCompile()
			r.Speedup, r.SpeedupNote = 0, "parallel run had 1 effective worker(s)"
			return r
		}(), "parallel_speedup suppressed"},
		{"compile speedup missing", func() checker { r := passingCompile(); r.Speedup = 0; return r }(), "parallel_speedup missing"},

		{"sim diverged", func() checker { r := passingSim(); r.Deterministic = false; return r }(), "deterministic"},
		{"sim speedup below floor", func() checker { r := passingSim(); r.ParallelSpeedup = 1.1; return r }(), "parallel_speedup 1.10"},
		{"sim speedup suppressed", func() checker {
			r := passingSim()
			r.ParallelSpeedup, r.ParallelSpeedupNote = 0, "parallel run had 1 effective worker(s)"
			return r
		}(), "parallel_speedup suppressed"},
		{"sim speedup missing on one core", func() checker { r := passingSim(); r.NumCPU, r.ParallelSpeedup = 1, 0; return r }(), "parallel_speedup missing"},

		{"noise loses on mean", func() checker { r := passingNoise(); r.MeanNoise = 0.19; return r }(), "mean_noise"},
		{"noise geomean NaN", func() checker { r := passingNoise(); r.GeoMeanRatio = math.NaN(); return r }(), "geomean_ratio"},

		{"opt no rows", func() checker { r := passingOpt(); r.Rows = nil; return r }(), "rows"},
		{"opt cell regressed", func() checker { r := passingOpt(); r.Rows[0].SaturateTwoQubit = 11; return r }(), "saturate_two_qubit 11 > legacy_two_qubit 10 on grovers-9"},
		{"opt worse count", func() checker { r := passingOpt(); r.SaturateWorse = 1; return r }(), "saturate_worse"},
		{"opt too few better", func() checker { r := passingOpt(); r.SaturateBetter = 7; return r }(), "saturate_better 7"},
		{"opt not equivalent", func() checker { r := passingOpt(); r.EquivalenceOK = false; return r }(), "equivalence_ok"},
		{"opt template slow", func() checker { r := passingOpt(); r.TemplateMinSpeedup = 1.4; return r }(), "template_min_speedup"},

		{"stream diverged", func() checker { r := passingStream(); r.EquivalenceOK = false; return r }(), "equivalence_ok"},
		{"stream over budget", func() checker { r := passingStream(); r.PeakRSSBytes = r.WindowBudgetBytes + 1; return r }(), "peak_rss_bytes"},
		{"stream rss missing", func() checker { r := passingStream(); r.PeakRSSBytes = 0; return r }(), "peak_rss_bytes"},
		{"stream over budget on one core", func() checker {
			r := passingStream()
			r.NumCPU, r.PeakRSSBytes = 1, r.WindowBudgetBytes+1
			return r
		}(), "peak_rss_bytes"},
		{"stream speedup below floor", func() checker { r := passingStream(); r.PipelineVsSerialSpeedup = 1.1; return r }(), "pipeline_vs_serial_speedup"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.report.Check()
			switch {
			case tc.field == "" && err != nil:
				t.Fatalf("Check failed a passing report: %v", err)
			case tc.field != "" && err == nil:
				t.Fatalf("Check passed a report violating %s", tc.field)
			case tc.field != "" && !strings.Contains(err.Error(), tc.field):
				t.Fatalf("Check error %q does not name %q", err, tc.field)
			}
		})
	}
}

// TestCheckJoinsViolations: a report missing several floors reports them all.
func TestCheckJoinsViolations(t *testing.T) {
	r := passingOpt()
	r.EquivalenceOK, r.SaturateBetter, r.TemplateMinSpeedup = false, 7, 1.4
	err := r.Check()
	if err == nil {
		t.Fatal("Check passed three violations")
	}
	for _, field := range []string{"equivalence_ok", "saturate_better", "template_min_speedup"} {
		if !strings.Contains(err.Error(), field) {
			t.Errorf("joined error %q does not name %s", err, field)
		}
	}
}

// TestCommittedBenchReportsPass decodes the BENCH_*.json artifacts committed
// at the repository root and holds each to its floors, so an artifact that
// misses a floor cannot be committed. The decode is strict: a field the
// report type no longer has fails it. (The kernel floors' BENCH_kernels.txt
// is checked by TestCommittedKernelFloors in internal/route and
// internal/sim.)
func TestCommittedBenchReportsPass(t *testing.T) {
	for name, report := range map[string]checker{
		"compile":  &CompileBenchReport{},
		"sim":      &SimBenchReport{},
		"noise":    &NoiseBenchReport{},
		"optimize": &OptBenchReport{},
		"stream":   &StreamBenchReport{},
	} {
		path := filepath.Join("..", "..", "BENCH_"+name+".json")
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		if err := dec.Decode(report); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if err := report.Check(); err != nil {
			t.Errorf("%s misses its floors:\n%v", path, err)
		}
	}
}
