package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"trios/internal/obs"
	"trios/internal/service"
)

func TestSummarizeCountsBothCacheTiers(t *testing.T) {
	all := []sample{
		{latency: time.Millisecond, status: 200, cache: "miss", replica: "r0", trace: "aa11"},
		{latency: 5 * time.Millisecond, status: 200, cache: "hit", replica: "r0", trace: "bb22"},
		{latency: time.Millisecond, status: 200, cache: "hit-disk", replica: "r1", trace: "cc33"},
		{latency: time.Millisecond, status: 200, cache: "hit-disk", replica: "r1"},
		{latency: time.Millisecond, status: 429},
		{status: 0},
	}
	rep := summarize(all, time.Second)
	if rep.TracedRequests != 3 {
		t.Fatalf("traced requests %d, want 3", rep.TracedRequests)
	}
	if rep.SlowestTrace != "bb22" {
		t.Fatalf("slowest trace %q, want bb22 (the 5ms sample)", rep.SlowestTrace)
	}
	if rep.Cache.Hits != 1 || rep.Cache.DiskHits != 2 || rep.Cache.Misses != 1 {
		t.Fatalf("cache counts: %+v", rep.Cache)
	}
	if want := 3.0 / 4.0; rep.Cache.HitRate != want {
		t.Fatalf("hit rate %v, want %v (disk hits must count)", rep.Cache.HitRate, want)
	}
	if rep.Errors != 2 || rep.StatusCounts["transport_error"] != 1 {
		t.Fatalf("errors=%d statusCounts=%v", rep.Errors, rep.StatusCounts)
	}
	if rep.Replicas["r0"] != 2 || rep.Replicas["r1"] != 2 {
		t.Fatalf("replica counts: %v", rep.Replicas)
	}
}

func phaseReport(rps, hitRate float64) *Report {
	rep := &Report{}
	rep.ThroughputRPS = rps
	rep.Cache.HitRate = hitRate
	return rep
}

func TestMergePhaseDerivesFleetMetrics(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_fleet.json")

	if _, err := mergePhase(path, "single", phaseReport(100, 0.5)); err != nil {
		t.Fatal(err)
	}
	fleet, err := mergePhase(path, "fleet", phaseReport(250, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	if fleet.FleetVsSingleSpeedup != 2.5 {
		t.Fatalf("speedup %v, want 2.5", fleet.FleetVsSingleSpeedup)
	}
	if fleet, err = mergePhase(path, "warm", phaseReport(300, 0.95)); err != nil {
		t.Fatal(err)
	}
	if fleet.WarmRestartHitRate != 0.95 || fleet.FleetVsSingleSpeedup != 2.5 {
		t.Fatalf("derived metrics: %+v", fleet)
	}
	if _, err = mergePhase(path, "obs-off", phaseReport(200, 0.5)); err != nil {
		t.Fatal(err)
	}
	if fleet, err = mergePhase(path, "obs-on", phaseReport(196, 0.5)); err != nil {
		t.Fatal(err)
	}
	if fleet.TracingOnVsOffRatio != 0.98 {
		t.Fatalf("tracing ratio %v, want 0.98", fleet.TracingOnVsOffRatio)
	}

	// The file on disk holds all three phases and the derived metrics.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var onDisk FleetReport
	if err := json.Unmarshal(raw, &onDisk); err != nil {
		t.Fatal(err)
	}
	if len(onDisk.Phases) != 5 || onDisk.FleetVsSingleSpeedup != 2.5 || onDisk.WarmRestartHitRate != 0.95 || onDisk.TracingOnVsOffRatio != 0.98 {
		t.Fatalf("on-disk report: %s", raw)
	}
}

func TestMergePhaseRejectsForeignFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_fleet.json")
	if err := os.WriteFile(path, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := mergePhase(path, "single", phaseReport(1, 1)); err == nil {
		t.Fatal("mergePhase accepted a non-JSON file")
	}
}

func TestAssertThresholds(t *testing.T) {
	rep := phaseReport(100, 0.8)
	rep.Cache.DiskHits = 3

	if err := assert(options{minHitRate: 0.9, minTracingRatio: -1}, rep, nil); err == nil {
		t.Fatal("hit rate 0.8 passed -min-hit-rate 0.9")
	}
	if err := assert(options{minHitRate: 0.8, minDiskHits: 3, minSpeedup: -1, minTracingRatio: -1}, rep, nil); err != nil {
		t.Fatal(err)
	}
	if err := assert(options{minHitRate: -1, minDiskHits: 4, minSpeedup: -1, minTracingRatio: -1}, rep, nil); err == nil {
		t.Fatal("3 disk hits passed -min-disk-hits 4")
	}
	if err := assert(options{minHitRate: -1, minDiskHits: -1, minSpeedup: 2, minTracingRatio: -1}, rep, nil); err == nil {
		t.Fatal("-min-speedup without fleet phases must fail")
	}
	fleet := &FleetReport{FleetVsSingleSpeedup: 2.5}
	if err := assert(options{minHitRate: -1, minDiskHits: -1, minSpeedup: 2, minTracingRatio: -1}, rep, fleet); err != nil {
		t.Fatal(err)
	}
	if err := assert(options{minHitRate: -1, minDiskHits: -1, minSpeedup: 3, minTracingRatio: -1}, rep, fleet); err == nil {
		t.Fatal("speedup 2.5 passed -min-speedup 3")
	}
	if err := assert(options{minHitRate: -1, minDiskHits: -1, minSpeedup: -1, minTracingRatio: 0.95}, rep, fleet); err == nil {
		t.Fatal("-min-tracing-ratio without obs phases must fail")
	}
	fleet.TracingOnVsOffRatio = 0.97
	fleet.Phases = obsPhases(3, "aa11", 0)
	if err := assert(options{minHitRate: -1, minDiskHits: -1, minSpeedup: -1, minTracingRatio: 0.95}, rep, fleet); err != nil {
		t.Fatal(err)
	}
	if err := assert(options{minHitRate: -1, minDiskHits: -1, minSpeedup: -1, minTracingRatio: 0.99}, rep, fleet); err == nil {
		t.Fatal("ratio 0.97 passed -min-tracing-ratio 0.99")
	}
}

// obsPhases builds the obs-on and obs-off phases of a tracing-cost report.
func obsPhases(onTraced int, slowest string, offTraced int) map[string]*Report {
	on, off := phaseReport(196, 0.5), phaseReport(200, 0.5)
	on.TracedRequests, on.SlowestTrace = onTraced, slowest
	off.TracedRequests = offTraced
	return map[string]*Report{"obs-on": on, "obs-off": off}
}

// TestAssertObsPhases: -min-tracing-ratio holds only when the obs-on phase
// was traced end to end and the obs-off phase not at all.
func TestAssertObsPhases(t *testing.T) {
	opts := options{minHitRate: -1, minDiskHits: -1, minSpeedup: -1, minTracingRatio: 0.95}
	rep := phaseReport(196, 0.5)
	for _, tc := range []struct {
		name   string
		phases map[string]*Report
		want   string // "" means assert must pass
	}{
		{"traced on, untraced off", obsPhases(3, "aa11", 0), ""},
		{"on phase untraced", obsPhases(0, "aa11", 0), "obs-on phase was not traced"},
		{"on phase without slowest trace", obsPhases(3, "", 0), "obs-on phase was not traced"},
		{"off phase traced", obsPhases(3, "aa11", 2), "obs-off phase traced 2 requests"},
		{"off phase missing", map[string]*Report{"obs-on": obsPhases(3, "aa11", 0)["obs-on"]}, "needs phases"},
	} {
		fleet := &FleetReport{Phases: tc.phases, TracingOnVsOffRatio: 0.98}
		err := assert(opts, rep, fleet)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: got %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}

// TestCheckDebugTraces drives one compile through a traced in-process service
// and asserts checkDebugTraces sees the retained trace; an untraced service
// must fail the check.
func TestCheckDebugTraces(t *testing.T) {
	svc := service.New(service.Config{Workers: 2, Tracer: obs.NewTracer()})
	defer svc.Close(context.Background())
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	if err := checkDebugTraces(srv.URL); err == nil {
		t.Fatal("empty ring passed -check-traces")
	}
	resp, err := http.Post(srv.URL+"/v1/compile", "application/json",
		strings.NewReader(`{"benchmark":"cnx_inplace-4","pipeline":"trios"}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if err = checkDebugTraces(srv.URL); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("checkDebugTraces never passed: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}

	off := service.New(service.Config{Workers: 1})
	defer off.Close(context.Background())
	offSrv := httptest.NewServer(off.Handler())
	defer offSrv.Close()
	if err := checkDebugTraces(offSrv.URL); err == nil {
		t.Fatal("tracing-off service passed -check-traces")
	}
}
