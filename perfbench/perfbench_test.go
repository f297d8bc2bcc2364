package main

import (
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"trios/internal/compiler"
	"trios/internal/decompose"
	"trios/internal/device"
	"trios/internal/service"
)

func samplesUpTo(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(i + 1)
	}
	return s
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for n := 1; n <= 3000; n++ {
		s := samplesUpTo(n)
		v, q, got := tailPercentile(s, 0.99)
		if got != n {
			t.Fatalf("n=%d: sample count %d", n, got)
		}
		beyond := 0
		for _, x := range s {
			if x > v {
				beyond++
			}
		}
		switch {
		case q == 1:
			if v != float64(n) {
				t.Fatalf("n=%d: quantile 1 must report the maximum, got %v", n, v)
			}
			if n >= 21 {
				t.Fatalf("n=%d: %d samples support a tail quantile, got the maximum", n, n)
			}
		case beyond < minTail:
			t.Fatalf("n=%d: reported quantile %.4f has %d samples beyond it", n, q, beyond)
		case q > 0.99+1/float64(n):
			t.Fatalf("n=%d: reported quantile %.4f above p99", n, q)
		case q < 0.5:
			t.Fatalf("n=%d: reported quantile %.4f below the median", n, q)
		}
	}
	if v, q, _ := tailPercentile(samplesUpTo(1000), 0.99); v != 990 || q != 0.99 {
		t.Errorf("1000 samples: got %v at quantile %v, want 990 at 0.99", v, q)
	}
	// 500 samples: p99 would leave 5 beyond it, so the 98th percentile is
	// the highest one reported.
	if v, q, _ := tailPercentile(samplesUpTo(500), 0.99); v != 490 || q != 0.98 {
		t.Errorf("500 samples: got %v at quantile %v, want 490 at 0.98", v, q)
	}
}

func TestTailPercentileCountsFailuresAsMisses(t *testing.T) {
	s := samplesUpTo(1000)
	for i := 0; i < 20; i++ {
		s[i] = math.Inf(1) // 2% of operations failed
	}
	if v, _, _ := tailPercentile(s, 0.99); !math.IsInf(v, 1) {
		t.Errorf("p99 with 2%% failed operations = %v, want +Inf", v)
	}
	if m := median(s); math.IsInf(m, 1) {
		t.Errorf("median with 2%% failed operations = %v, want finite", m)
	}
}

func TestSelfTimeNestedAndOverlapping(t *testing.T) {
	spans := []span{
		{ID: 1, Req: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Req: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 2, Req: 1, Name: "a.inner", Start: 15, End: 25},
		{ID: 4, Parent: 1, Req: 1, Name: "b", Start: 30, End: 60},  // overlaps a
		{ID: 5, Parent: 1, Req: 1, Name: "c", Start: 90, End: 120}, // ends after its parent
	}
	self := selfTimes(spans)
	want := map[uint64]int64{1: 100 - 50 - 10, 2: 30 - 10, 3: 10, 4: 30, 5: 30}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d: self time %d, want %d", id, self[id], w)
		}
	}
	// Only reported layers are subtracted: b and c stay unattributed.
	un, ops := unattributed(spans, "op", map[string]bool{"a": true, "a.inner": true})
	if ops != 1 || un != 100-20-10 {
		t.Errorf("unattributed = %v over %d ops, want 70 over 1", un, ops)
	}
}

func TestTracerRecordsTree(t *testing.T) {
	tr := newTracer()
	root := tr.root("op")
	child := root.child("layer")
	id, req := root.id()
	remote := tr.childOf("server", id, req)
	remote.end()
	child.end()
	root.end()
	spans := tr.snapshot()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	for _, s := range spans {
		if s.Req != req {
			t.Errorf("span %s has request %d, want %d", s.Name, s.Req, req)
		}
		if s.Name != "op" && s.Parent != id {
			t.Errorf("span %s has parent %d, want %d", s.Name, s.Parent, id)
		}
		if s.End < s.Start {
			t.Errorf("span %s ends before it starts", s.Name)
		}
	}
	var untraced *tracer
	untraced.root("op").child("layer").end() // no-ops
	if untraced.snapshot() != nil {
		t.Error("a nil tracer recorded spans")
	}
}

func TestRunCountsFailures(t *testing.T) {
	r := &run{metrics: map[string]float64{}, notes: map[string]any{}}
	r.op(nil)
	r.op(errors.New("status 500"))
	r.op(nil)
	r.op(errors.New("check failed"))
	if r.attempted != 4 || r.failed != 2 || len(r.failures) != 2 {
		t.Errorf("attempted %d failed %d (%d messages), want 4, 2, 2", r.attempted, r.failed, len(r.failures))
	}
}

// TestLoadCountsFailedRequests drives the closed loop against a server that
// refuses some requests and fails others: each one must count as failed and
// as an infinite latency, and 429s as rejected.
func TestLoadCountsFailedRequests(t *testing.T) {
	var n, failed, rejected atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch i := n.Add(1); {
		case i%7 == 0:
			rejected.Add(1)
			failed.Add(1)
			http.Error(w, "queue full", http.StatusTooManyRequests)
		case i%3 == 0:
			failed.Add(1)
			http.Error(w, "boom", http.StatusInternalServerError)
		default:
			w.Header().Set("X-Trios-Cache", "miss")
			_, _ = w.Write([]byte(`{}`))
		}
	}))
	defer srv.Close()
	s := &server{
		http:   srv,
		client: srv.Client(),
		bodies: []body{{req: service.CompileRequest{QASM: "x"}, json: []byte(`{"qasm":"x"}`), gates: 1}},
	}
	st := load(s, 2, 1, true, 200*time.Millisecond, nil)
	total := int(n.Load())
	if st.ok+len(st.errs) != total {
		t.Fatalf("ok %d + failed %d != %d requests served", st.ok, len(st.errs), total)
	}
	if len(st.errs) != int(failed.Load()) || st.rej != int(rejected.Load()) {
		t.Errorf("failed %d rejected %d, want %d and %d", len(st.errs), st.rej, failed.Load(), rejected.Load())
	}
	inf, samples := 0, 0
	for _, w := range st.latWindows {
		for _, l := range w {
			samples++
			if math.IsInf(l, 1) {
				inf++
			}
		}
	}
	if inf != len(st.errs) || samples != total {
		t.Errorf("%d infinite latencies of %d, want %d of %d", inf, samples, len(st.errs), total)
	}
	if st.hits != 0 {
		t.Errorf("counted %d hits on a server that only misses", st.hits)
	}
}

func TestCheckMix(t *testing.T) {
	cases := []struct {
		miss    bool
		hits    int
		ok      int
		wantErr bool
	}{
		{false, 990, 1000, false},
		{false, 1000, 1000, false},
		{false, 989, 1000, true},
		{false, 0, 0, true},
		{true, 0, 500, false},
		{true, 1, 500, true},
		{true, 0, 0, true},
	}
	for _, c := range cases {
		if err := checkMix(c.miss, c.hits, c.ok); (err != nil) != c.wantErr {
			t.Errorf("checkMix(miss=%v, %d/%d) = %v, want error %v", c.miss, c.hits, c.ok, err, c.wantErr)
		}
	}
}

// TestPassLayers checks that every pass the grid and serve workloads run
// maps to a reported layer, except the terminal stats snapshot.
func TestPassLayers(t *testing.T) {
	cal, err := device.ForDevice("johannesburg")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []compiler.Pipeline{compiler.Conventional, compiler.TriosPipeline} {
		passes, err := compiler.PipelinePasses(compiler.Options{Pipeline: p, Mode: decompose.Auto, Optimize: true, Calibration: cal})
		if err != nil {
			t.Fatal(err)
		}
		for _, ps := range passes {
			if l := layerOf(ps.Name()); !passLayerNames()[l] && ps.Name() != "stats" {
				t.Errorf("%v pipeline: pass %s maps to unreported layer %s", p, ps.Name(), l)
			}
		}
	}
}

// TestBenchmarkJSONMatches keeps the metric declarations in BENCHMARK.json
// and the ones this program prints identical.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.EndToEnd) != len(endToEnd) || len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json declares %d+%d metrics, the program %d+%d",
			len(doc.EndToEnd), len(doc.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range doc.EndToEnd {
		if d := endToEnd[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("end_to_end[%d] = %+v, program has %+v", i, m, d)
		}
	}
	for i, m := range doc.PerLayer {
		if d := perLayer[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer[%d] = %+v, program has %+v", i, m, d)
		}
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %s is not implemented", w.Name)
		}
	}
	if len(names) != len(workloads) {
		sort.Strings(names)
		t.Errorf("BENCHMARK.json lists workloads %v, the program has %d", names, len(workloads))
	}
}
