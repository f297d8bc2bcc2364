package experiments

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestRunOptBenchShort runs the CI-sized optimizer grid and checks the
// report's internal consistency plus the headline acceptance properties: the
// saturating engine must never regress a cell's two-qubit count vs the
// committed legacy count, every cell must verify equivalent, and the warmed
// template path must be faster than the cold pipeline.
func TestRunOptBenchShort(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the grid and statevector-verifies every cell")
	}
	r, err := RunOptBench(true, 2021)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cells == 0 || len(r.Rows) != r.Cells {
		t.Fatalf("cells %d, rows %d", r.Cells, len(r.Rows))
	}
	if r.SaturateBetter+r.SaturateWorse+r.Equal != r.Cells {
		t.Fatalf("partition %d+%d+%d != %d cells", r.SaturateBetter, r.SaturateWorse, r.Equal, r.Cells)
	}
	for _, row := range r.Rows {
		if row.SaturateTwoQubit > row.LegacyTwoQubit {
			t.Errorf("%s %s on %s: saturate %d > legacy %d two-qubit gates",
				row.Benchmark, row.Pipeline, row.Topology, row.SaturateTwoQubit, row.LegacyTwoQubit)
		}
		if !row.EquivalenceChecked || !row.EquivalenceOK {
			t.Errorf("%s %s on %s: checked %v, equivalent %v",
				row.Benchmark, row.Pipeline, row.Topology, row.EquivalenceChecked, row.EquivalenceOK)
		}
	}
	if r.EquivalenceChecked != r.Cells {
		t.Fatalf("equivalence_checked %d, want every one of %d cells", r.EquivalenceChecked, r.Cells)
	}
	if !r.EquivalenceOK {
		t.Fatal("report equivalence_ok is false")
	}
	if len(r.TemplateRows) == 0 {
		t.Fatal("no template latency rows")
	}
	for _, row := range r.TemplateRows {
		if row.Outcome != "hit" && row.Outcome != "stitched" {
			t.Errorf("%s: template outcome %q, want hit or stitched", row.Benchmark, row.Outcome)
		}
		if row.Speedup <= 1 {
			t.Errorf("%s: template speedup %.2f not > 1", row.Benchmark, row.Speedup)
		}
	}
	if r.TemplateMinSpeedup <= 1 || r.TemplateGeoMeanSpeedup < r.TemplateMinSpeedup {
		t.Fatalf("template speedups inconsistent: min %.2f geomean %.2f",
			r.TemplateMinSpeedup, r.TemplateGeoMeanSpeedup)
	}

	// The JSON document must round-trip with the fields Check reads.
	var buf bytes.Buffer
	if err := WriteJSON(&buf, r); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"rows", "saturate_better", "equivalence_ok", "template_min_speedup"} {
		if _, ok := doc[key]; !ok {
			t.Errorf("JSON missing %q", key)
		}
	}
	r.WriteText(&buf)
}

// TestOptBenchLegacyTable checks the committed legacy table covers the full
// grid at its seed, and that any other seed is refused rather than compared
// against counts generated for a different compile.
func TestOptBenchLegacyTable(t *testing.T) {
	legacy, err := loadLegacyCounts(2021)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range optBenchBenchmarks(false) {
		for _, g := range optBenchTopologies(false) {
			for _, pipe := range []string{"baseline", "trios"} {
				if _, ok := legacy[legacyCellKey{b.Name, g.Name(), pipe}]; !ok {
					t.Errorf("no legacy counts for %s %s on %s", b.Name, pipe, g.Name())
				}
			}
		}
	}
	if want := 88; len(legacy) != want {
		t.Errorf("legacy table has %d cells, want %d", len(legacy), want)
	}
	if _, err := RunOptBench(true, 7); err == nil || !strings.Contains(err.Error(), "seed 2021") {
		t.Errorf("seed 7: err = %v, want a committed-seed error", err)
	}
}
