package route

import (
	"bufio"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"trios/internal/circuit"
	"trios/internal/layout"
	"trios/internal/topo"
)

// Kernel floors for the branch-free routers: each benchmark times the
// production router against its frozen legacy arm (legacy_test.go) on one
// fixed workload, requires identical output, and fails when legacy/new wall
// time is below minKernelSpeedup. `make bench-kernels` runs them and writes
// BENCH_kernels.txt.

// minKernelSpeedup is the floor on each router's legacy/new speedup.
const minKernelSpeedup = 1.2

// kernelFloorSeed seeds the workload circuits and the routers.
const kernelFloorSeed = 2021

// checkKernelFloor holds one floor workload to its floor: the new arm
// reproduced the legacy arm, and speedup >= minKernelSpeedup. The error
// names the workload.
func checkKernelFloor(workload string, speedup float64, identical bool) error {
	var errs []error
	if !identical {
		errs = append(errs, fmt.Errorf("%s: new arm diverged from its legacy arm", workload))
	}
	if !(speedup >= minKernelSpeedup) {
		errs = append(errs, fmt.Errorf("%s: speedup %.2f < floor %g", workload, speedup, minKernelSpeedup))
	}
	return errors.Join(errs...)
}

// kernelRouteCircuit builds a routing workload with both pair and trio
// pressure: mostly CX with CCX and 1q gates mixed in.
func kernelRouteCircuit(rng *rand.Rand, n, gates int) *circuit.Circuit {
	c := circuit.New(n)
	for i := 0; i < gates; i++ {
		switch rng.Intn(10) {
		case 0, 1:
			c.H(rng.Intn(n))
		case 2, 3:
			p := rng.Perm(n)
			c.CCX(p[0], p[1], p[2])
		default:
			p := rng.Perm(n)
			c.CX(p[0], p[1])
		}
	}
	return c
}

// kernelFloorCircuits draws the floor workloads from one seeded stream: the
// stochastic router's 100-qubit circuit, then a 20-qubit circuit no floor
// uses (drawn to keep the stream's order), then the lookahead router's
// 64-qubit circuit.
func kernelFloorCircuits() (stoch, look *circuit.Circuit) {
	rng := rand.New(rand.NewSource(kernelFloorSeed))
	stoch = kernelRouteCircuit(rng, 100, 400)
	kernelRouteCircuit(rng, 20, 300)
	look = kernelRouteCircuit(rng, 64, 400)
	return stoch, look
}

// bestOf3 runs f three times and returns its fastest wall-clock seconds: a
// single sample of a sub-second section is at the mercy of scheduler noise.
func bestOf3(f func() error) (float64, error) {
	best := 0.0
	for i := 0; i < 3; i++ {
		start := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		if sec := time.Since(start).Seconds(); i == 0 || sec < best {
			best = sec
		}
	}
	return best, nil
}

// sameRouted reports whether two routing results are exactly equal: same
// gate stream, same swap count, same final placement.
func sameRouted(a, b *Result) bool {
	return a.SwapsAdded == b.SwapsAdded &&
		reflect.DeepEqual(a.Circuit.Gates, b.Circuit.Gates) &&
		reflect.DeepEqual(a.Final.VirtualToPhys(), b.Final.VirtualToPhys())
}

// benchKernelFloor times reps routes of c on g with the new router, then
// with the legacy one (best of 3 each), reports the seconds and the
// speedup, and fails the benchmark below the floor or on any divergence.
func benchKernelFloor(b *testing.B, workload string, c *circuit.Circuit, g *topo.Graph, reps int, newArm, oldArm Router) {
	if testing.Short() {
		b.Skip("timing floor; skipped under -short")
	}
	init := layout.Identity(g.NumQubits())
	timeArm := func(r Router) (float64, *Result, error) {
		var res *Result
		sec, err := bestOf3(func() error {
			for i := 0; i < reps; i++ {
				var err error
				if res, err = r.Route(c, g, init); err != nil {
					return err
				}
			}
			return nil
		})
		return sec, res, err
	}
	var newSec, oldSec float64
	identical := true
	for i := 0; i < b.N; i++ {
		var resNew, resOld *Result
		var err error
		if newSec, resNew, err = timeArm(newArm); err != nil {
			b.Fatal(err)
		}
		if oldSec, resOld, err = timeArm(oldArm); err != nil {
			b.Fatal(err)
		}
		identical = identical && sameRouted(resNew, resOld)
	}
	speedup := oldSec / newSec
	b.ReportMetric(oldSec, "legacy-sec")
	b.ReportMetric(newSec, "new-sec")
	b.ReportMetric(speedup, "speedup")
	if err := checkKernelFloor(workload, speedup, identical); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkKernelFloorStochastic: the stochastic router's delta-scoring
// trials on a 10x10 grid, 400 gates, 64 trials per blocked layer (per-trial
// work scales with edges x pending gates, so the large device and trial
// count keep the shared DAG and emission scaffolding from diluting the
// kernel under test).
func BenchmarkKernelFloorStochastic(b *testing.B) {
	c, _ := kernelFloorCircuits()
	s := &Stochastic{Seed: kernelFloorSeed, TrioAware: true, Trials: 64}
	benchKernelFloor(b, "route-stochastic", c, topo.Grid(10, 10), 1, s, (*legacyStochastic)(s))
}

// BenchmarkKernelFloorLookahead: the lookahead router's window-cost sweep
// on an 8x8 grid, 400 gates, window 80, 3 routes per sample. The legacy
// sweep is O(edges x window) per emitted swap and the delta sweep
// O(window + edges x touched), so a deep window on a large device makes the
// sweep dominate.
func BenchmarkKernelFloorLookahead(b *testing.B) {
	_, c := kernelFloorCircuits()
	lk := &Lookahead{Seed: kernelFloorSeed, TrioAware: true, Window: 80}
	benchKernelFloor(b, "route-lookahead", c, topo.Grid(8, 8), 3, lk, (*legacyLookahead)(lk))
}

// TestCheckKernelFloor feeds the floor helper a passing result for each
// router, a diverged result, and a speedup just under the floor for each
// router: every failure must name its workload.
func TestCheckKernelFloor(t *testing.T) {
	workloads := []string{"route-stochastic", "route-lookahead"}
	wantErr := func(t *testing.T, workload string, speedup float64, identical bool, want string) {
		t.Helper()
		err := checkKernelFloor(workload, speedup, identical)
		if err == nil || !strings.Contains(err.Error(), workload) || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %v, want one naming %q and %q", workload, err, workload, want)
		}
	}
	t.Run("ok", func(t *testing.T) {
		for _, workload := range workloads {
			if err := checkKernelFloor(workload, 2, true); err != nil {
				t.Errorf("%s: passing result failed: %v", workload, err)
			}
		}
	})
	t.Run("diverged", func(t *testing.T) {
		for _, workload := range workloads {
			wantErr(t, workload, 2, false, "diverged")
		}
	})
	t.Run("stochastic", func(t *testing.T) {
		wantErr(t, "route-stochastic", 1.1, true, "speedup 1.10 < floor 1.2")
	})
	t.Run("lookahead", func(t *testing.T) {
		wantErr(t, "route-lookahead", 1.1, true, "speedup 1.10 < floor 1.2")
	})
}

// committedKernelSpeedups parses the committed BENCH_kernels.txt (go test
// -bench output) into speedup metrics keyed by benchmark name, without the
// GOMAXPROCS suffix. It fails the test if the run recorded a failure.
func committedKernelSpeedups(t *testing.T) map[string]float64 {
	t.Helper()
	f, err := os.Open(filepath.Join("..", "..", "BENCH_kernels.txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	speedups := map[string]float64{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) > 0 && fields[0] == "FAIL" || len(fields) > 1 && fields[1] == "FAIL:" {
			t.Fatalf("BENCH_kernels.txt records a failure: %s", sc.Text())
		}
		if len(fields) < 2 || !strings.HasPrefix(fields[0], "BenchmarkKernelFloor") {
			continue
		}
		name, _, _ := strings.Cut(fields[0], "-")
		for i := 2; i+1 < len(fields); i += 2 {
			if fields[i+1] == "speedup" {
				if speedups[name], err = strconv.ParseFloat(fields[i], 64); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return speedups
}

// TestCommittedKernelFloors holds the committed BENCH_kernels.txt rows for
// the routers to the floor.
func TestCommittedKernelFloors(t *testing.T) {
	speedups := committedKernelSpeedups(t)
	for name, workload := range map[string]string{
		"BenchmarkKernelFloorStochastic": "route-stochastic",
		"BenchmarkKernelFloorLookahead":  "route-lookahead",
	} {
		speedup, ok := speedups[name]
		if !ok {
			t.Errorf("BENCH_kernels.txt has no %s speedup", name)
			continue
		}
		if err := checkKernelFloor(workload, speedup, true); err != nil {
			t.Error(err)
		}
	}
}
