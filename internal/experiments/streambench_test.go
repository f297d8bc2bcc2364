package experiments

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestRunStreamBenchSmall runs the whole benchmark at test-sized gate
// counts (in-process RSS fallback) and checks the report invariants.
func TestRunStreamBenchSmall(t *testing.T) {
	report, err := RunStreamBench(StreamBenchOptions{
		Seed:       7,
		Short:      true,
		LargeGates: 20_000,
		SmallGates: 5_000,
		EquivGates: 4_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !report.EquivalenceOK {
		t.Fatal("streamed output diverged from the monolithic golden arm")
	}
	if len(report.Runs) != 2 || report.Runs[0].Arm != "serial" || report.Runs[1].Arm != "pipeline" {
		t.Fatalf("runs: %+v", report.Runs)
	}
	for _, run := range report.Runs {
		if run.Gates != 20_000 || run.Windows != (20_000+report.Window-1)/report.Window {
			t.Fatalf("run %q: gates=%d windows=%d (window %d)", run.Arm, run.Gates, run.Windows, report.Window)
		}
		if run.WallSeconds <= 0 || run.GatesPerSec <= 0 {
			t.Fatalf("run %q: non-positive timing %+v", run.Arm, run)
		}
	}
	if report.PipelineVsSerialSpeedup <= 0 {
		t.Fatalf("speedup = %v", report.PipelineVsSerialSpeedup)
	}
	if report.PeakRSSBytes <= 0 || report.SmallPeakRSSBytes <= 0 {
		t.Fatalf("rss: large=%d small=%d", report.PeakRSSBytes, report.SmallPeakRSSBytes)
	}
	if report.WindowBudgetBytes <= 0 {
		t.Fatal("window budget not set")
	}

	var buf bytes.Buffer
	if err := WriteJSON(&buf, report); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"gomaxprocs", "num_cpu", "pipeline_vs_serial_speedup",
		"peak_rss_bytes", "window_budget_bytes", "equivalence_ok", "runs", "window"} {
		if _, ok := decoded[key]; !ok {
			t.Fatalf("BENCH_stream.json missing %q: %s", key, buf.String())
		}
	}
	var text strings.Builder
	report.WriteText(&text)
	if !strings.Contains(text.String(), "pipeline vs serial speedup") {
		t.Fatalf("text summary: %q", text.String())
	}
}

// TestStreamRSSChildRunsCompile checks the child entry point end to end
// in-process: it must compile the stream and report a plausible RSS.
func TestStreamRSSChildRunsCompile(t *testing.T) {
	rss, err := StreamRSSChild(StreamRSSParams{
		Kind: "cliffordt", Qubits: 12, Gates: 2_000, Window: 256,
		Parallel: true, Seed: 3, Topology: "johannesburg",
	})
	if err != nil {
		t.Fatal(err)
	}
	if rss < 1<<20 {
		t.Fatalf("peak RSS %d bytes is implausibly small", rss)
	}
	if _, err := StreamRSSChild(StreamRSSParams{Kind: "nosuch", Topology: "johannesburg"}); err == nil {
		t.Fatal("expected an error for an unknown stream kind")
	}
}

// TestStreamBenchHashWriter pins the digest's equality semantics.
func TestStreamBenchHashWriter(t *testing.T) {
	var a, b hashWriter
	a.reset()
	b.reset()
	a.Write([]byte("OPENQASM 2.0;"))
	b.Write([]byte("OPENQASM "))
	b.Write([]byte("2.0;"))
	if a.sum() != b.sum() {
		t.Fatal("chunking changed the digest")
	}
	b.Write([]byte("x"))
	if a.sum() == b.sum() {
		t.Fatal("digest ignored extra bytes")
	}
}
