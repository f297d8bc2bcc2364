package sim

import (
	"bufio"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"trios/internal/circuit"
)

// Kernel floor for the dense engine: BenchmarkKernelFloorDenseSweep times
// the fused branch-free engine against the frozen full-scan loops
// (legacyloops_test.go) on one cache-resident workload, requires matching
// amplitudes, and fails when legacy/fused wall time is below
// minKernelSpeedup. `make bench-kernels` runs it and writes
// BENCH_kernels.txt.

// minKernelSpeedup is the floor on the dense sweep's legacy/fused speedup.
const minKernelSpeedup = 1.2

// kernelFloorSeed seeds the workload circuit and initial states.
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

// kernelSweepCircuit builds a dense-sweep workload hitting every kernel
// shape: 1q matrices, controlled matrices with 1-3 controls, phases, and
// swaps.
func kernelSweepCircuit(rng *rand.Rand, n, gates int) *circuit.Circuit {
	c := circuit.New(n)
	for i := 0; i < gates; i++ {
		switch rng.Intn(8) {
		case 0, 1:
			c.U3(rng.Float64()*3, rng.Float64()*6, rng.Float64()*6, rng.Intn(n))
		case 2:
			c.H(rng.Intn(n))
		case 3:
			p := rng.Perm(n)
			c.CZ(p[0], p[1])
		case 4:
			p := rng.Perm(n)
			c.SWAP(p[0], p[1])
		case 5:
			p := rng.Perm(n)
			c.CCX(p[0], p[1], p[2])
		default:
			p := rng.Perm(n)
			c.CX(p[0], p[1])
		}
	}
	return c
}

// skipRouteDraws advances rng past the router floors' three workload
// circuits (internal/route's kernelRouteCircuit on 100, 20 and 64 qubits),
// which share the seeded stream and are drawn before the sweep circuit.
func skipRouteDraws(rng *rand.Rand) {
	for _, w := range [][2]int{{100, 400}, {20, 300}, {64, 400}} {
		n := w[0]
		for i := 0; i < w[1]; i++ {
			if rng.Intn(10) < 2 {
				rng.Intn(n)
			} else {
				rng.Perm(n)
			}
		}
	}
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

// BenchmarkKernelFloorDenseSweep: 60 sweeps of a 300-gate mixed-shape
// circuit over 12-qubit random states, the frozen full-scan loops against
// the fused engine run serially. At 12 qubits the register is
// cache-resident, so the comparison measures the kernels rather than the
// memory bus. The unrolled gate-at-a-time kernels must reproduce the legacy
// amplitudes bit for bit; fusion reorders float products, so the fused
// state is held to fidelity >= 1-1e-9.
func BenchmarkKernelFloorDenseSweep(b *testing.B) {
	if testing.Short() {
		b.Skip("timing floor; skipped under -short")
	}
	const (
		workload = "dense-sweep"
		qubits   = 12
		gates    = 300
		reps     = 60
	)
	rng := rand.New(rand.NewSource(kernelFloorSeed))
	skipRouteDraws(rng)
	c := kernelSweepCircuit(rng, qubits, gates)
	bases := make([]*State, reps)
	for r := range bases {
		bases[r] = NewRandomState(qubits, kernelFloorSeed+int64(r))
	}
	prog, err := Fuse(c, qubits)
	if err != nil {
		b.Fatal(err)
	}
	var legacySec, fusedSec float64
	identical := true
	for i := 0; i < b.N; i++ {
		var legacyOut, fusedOut *State
		if legacySec, err = bestOf3(func() error {
			for r := 0; r < reps; r++ {
				s := bases[r].Copy()
				if err := s.legacyApplyCircuit(c); err != nil {
					return err
				}
				legacyOut = s
			}
			return nil
		}); err != nil {
			b.Fatal(err)
		}
		if fusedSec, err = bestOf3(func() error {
			for r := 0; r < reps; r++ {
				s := bases[r].Copy()
				if err := prog.Run(s, 1); err != nil {
					return err
				}
				fusedOut = s
			}
			return nil
		}); err != nil {
			b.Fatal(err)
		}
		unrolled := bases[reps-1].Copy()
		if err := unrolled.ApplyCircuit(c); err != nil {
			b.Fatal(err)
		}
		for k := range unrolled.amp {
			identical = identical && unrolled.amp[k] == legacyOut.amp[k]
		}
		identical = identical && legacyOut.Fidelity(fusedOut) >= 1-1e-9
	}
	speedup := legacySec / fusedSec
	b.ReportMetric(legacySec, "legacy-sec")
	b.ReportMetric(fusedSec, "new-sec")
	b.ReportMetric(speedup, "speedup")
	if err := checkKernelFloor(workload, speedup, identical); err != nil {
		b.Fatal(err)
	}
}

// TestCheckKernelFloor feeds the floor helper a passing result, a speedup
// just under the floor, and a diverged result: the failures must name the
// workload.
func TestCheckKernelFloor(t *testing.T) {
	const workload = "dense-sweep"
	if err := checkKernelFloor(workload, 2, true); err != nil {
		t.Errorf("passing result failed: %v", err)
	}
	for _, tc := range []struct {
		name      string
		speedup   float64
		identical bool
		want      string
	}{
		{"slow", 1.1, true, "speedup 1.10 < floor 1.2"},
		{"diverged", 2, false, "diverged"},
	} {
		err := checkKernelFloor(workload, tc.speedup, tc.identical)
		if err == nil || !strings.Contains(err.Error(), workload) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one naming %q and %q", tc.name, err, workload, tc.want)
		}
	}
}

// TestCommittedKernelFloors holds the committed BENCH_kernels.txt (go test
// -bench output) dense-sweep row to the floor, and fails if the run
// recorded a failure.
func TestCommittedKernelFloors(t *testing.T) {
	f, err := os.Open(filepath.Join("..", "..", "BENCH_kernels.txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	speedup, found := 0.0, false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) > 0 && fields[0] == "FAIL" || len(fields) > 1 && fields[1] == "FAIL:" {
			t.Fatalf("BENCH_kernels.txt records a failure: %s", sc.Text())
		}
		if len(fields) < 2 || !strings.HasPrefix(fields[0], "BenchmarkKernelFloorDenseSweep") {
			continue
		}
		for i := 2; i+1 < len(fields); i += 2 {
			if fields[i+1] == "speedup" {
				if speedup, err = strconv.ParseFloat(fields[i], 64); err != nil {
					t.Fatal(err)
				}
				found = true
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Fatal("BENCH_kernels.txt has no BenchmarkKernelFloorDenseSweep speedup")
	}
	if err := checkKernelFloor("dense-sweep", speedup, true); err != nil {
		t.Error(err)
	}
}
