package experiments

import (
	"bytes"
	"encoding/json"
	"testing"
)

// TestRunNoiseBenchShort runs the CI-sized sweep and checks the report's
// internal consistency plus the headline acceptance property: the noise arm
// must not lose on mean estimated success.
func TestRunNoiseBenchShort(t *testing.T) {
	r, err := RunNoiseBench(true, 2021)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cells == 0 || len(r.Rows) != r.Cells {
		t.Fatalf("cells %d, rows %d", r.Cells, len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.UniformSuccess < 0 || row.UniformSuccess > 1 || row.NoiseSuccess < 0 || row.NoiseSuccess > 1 {
			t.Errorf("%s/%s: success out of range: %+v", row.Benchmark, row.Topology, row)
		}
		if row.Calibration == "" {
			t.Errorf("%s/%s: missing calibration name", row.Benchmark, row.Topology)
		}
	}
	if r.MeanNoise < r.MeanUniform {
		t.Errorf("noise-aware mean %v < uniform mean %v", r.MeanNoise, r.MeanUniform)
	}
	if r.GeoMeanRatio <= 0 {
		t.Errorf("geomean ratio %v", r.GeoMeanRatio)
	}

	// The report serializes and the text summary renders.
	var buf bytes.Buffer
	if err := WriteJSON(&buf, r); err != nil {
		t.Fatal(err)
	}
	var back NoiseBenchReport
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Cells != r.Cells || back.MeanNoise != r.MeanNoise {
		t.Error("JSON round trip changed the report")
	}
	buf.Reset()
	r.WriteText(&buf)
	if buf.Len() == 0 {
		t.Fatal("empty text summary")
	}
}

// TestRunNoiseBenchDeterministic: the sweep must be pure in its seed for any
// worker count (the batch engine guarantees per-job determinism; this pins
// the report assembly on top of it).
func TestRunNoiseBenchDeterministic(t *testing.T) {
	a, err := RunNoiseBench(true, 7)
	if err != nil {
		t.Fatal(err)
	}
	old := Workers
	Workers = 1
	defer func() { Workers = old }()
	b, err := RunNoiseBench(true, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Rows) != len(b.Rows) {
		t.Fatal("row counts differ across worker counts")
	}
	for i := range a.Rows {
		if a.Rows[i] != b.Rows[i] {
			t.Fatalf("row %d differs across worker counts:\n%+v\n%+v", i, a.Rows[i], b.Rows[i])
		}
	}
}
