package sim

import (
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"

	"trios/internal/circuit"
)

// Property tests for the unrolled kernels: the 4-wide unrolls, run
// decomposition, and stride-table index carries must be invisible — every
// register size (especially the awkward ones where tails and partial runs
// dominate) and every worker count must reproduce the legacy full-scan
// amplitudes bit for bit.

// randKernelCircuit is randomMixedCircuit with arity guards so it is safe
// down to n = 1: gate shapes that need more qubits than the register has
// are skipped, everything else matches the main generator's distribution.
func randKernelCircuit(rng *rand.Rand, n, gates int) *circuit.Circuit {
	c := circuit.New(n)
	for i := 0; i < gates; i++ {
		switch rng.Intn(10) {
		case 0:
			c.H(rng.Intn(n))
		case 1:
			c.T(rng.Intn(n))
		case 2:
			c.U3(rng.Float64()*3, rng.Float64()*6, rng.Float64()*6, rng.Intn(n))
		case 3:
			if n >= 2 {
				a, b := distinctPair(rng, n)
				c.CX(a, b)
			}
		case 4:
			if n >= 2 {
				a, b := distinctPair(rng, n)
				c.CZ(a, b)
			}
		case 5:
			if n >= 2 {
				a, b := distinctPair(rng, n)
				c.CP(rng.Float64()*6, a, b)
			}
		case 6:
			if n >= 2 {
				a, b := distinctPair(rng, n)
				c.SWAP(a, b)
			}
		case 7:
			if n >= 3 {
				p := rng.Perm(n)
				c.CCX(p[0], p[1], p[2])
			}
		case 8:
			if n >= 3 {
				p := rng.Perm(n)
				c.RCCX(p[0], p[1], p[2])
			}
		case 9:
			if n >= 4 {
				p := rng.Perm(n)
				c.MCX(p[:3], p[3])
			}
		}
	}
	return c
}

// TestUnrolledKernelsMatchLegacyAwkwardSizes sweeps register sizes chosen
// to stress every unroll boundary: n = 1..3 where whole sweeps are shorter
// than the unroll width, odd sizes where 2^(n-k) ranges leave scalar tails
// after the 4-wide body, and (without -race or -short) sizes up to the
// 24-qubit cap where the run decomposition covers many full runs.
func TestUnrolledKernelsMatchLegacyAwkwardSizes(t *testing.T) {
	sizes := []int{1, 2, 3, 4, 5, 6, 7, 9, 11, 13}
	if !testing.Short() && !raceEnabled {
		sizes = append(sizes, 17, 21, 24)
	}
	for _, n := range sizes {
		gates, seeds := 30, int64(3)
		if n >= 17 {
			gates, seeds = 6, 1
		}
		if n >= 24 {
			gates = 3
		}
		for seed := int64(0); seed < seeds; seed++ {
			rng := rand.New(rand.NewSource(seed*31 + int64(n)))
			c := randKernelCircuit(rng, n, gates)
			a := NewRandomState(n, seed+int64(n)*101)
			b := a.Copy()
			if err := a.ApplyCircuit(c); err != nil {
				t.Fatal(err)
			}
			if err := b.legacyApplyCircuit(c); err != nil {
				t.Fatal(err)
			}
			for i := range a.amp {
				if a.amp[i] != b.amp[i] {
					t.Fatalf("n=%d seed=%d: amplitude %d differs: kernel %v, legacy %v",
						n, seed, i, a.amp[i], b.amp[i])
				}
			}
		}
	}
}

// TestFusedRunWorkerCountsBitIdentical drives the real Run dispatch — pool
// creation, crossover gating, grain-aligned chunking — at worker counts
// 1/2/3/8 and checks bit identity against the serial run. GOMAXPROCS is
// raised for the test's duration so clampWorkers does not collapse the
// counts on single-core runners.
func TestFusedRunWorkerCountsBitIdentical(t *testing.T) {
	old := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(old)
	for _, n := range []int{14, 15} { // 2^13 pairs = exactly the crossover, and one past it
		rng := rand.New(rand.NewSource(int64(n)))
		c := randKernelCircuit(rng, n, 40)
		p, err := Fuse(c, n)
		if err != nil {
			t.Fatal(err)
		}
		base := NewRandomState(n, int64(n)+7)
		serial := base.Copy()
		if err := p.Run(serial, 1); err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 3, 8} {
			par := base.Copy()
			if err := p.Run(par, workers); err != nil {
				t.Fatal(err)
			}
			for i := range serial.amp {
				if serial.amp[i] != par.amp[i] {
					t.Fatalf("n=%d workers=%d: amplitude %d differs", n, workers, i)
				}
			}
		}
	}
}

// TestSweepPoolCoversRangeExactlyOnce: whatever the lane count and range
// length (aligned, unaligned, shorter than one grain), the chunks must
// partition [0, n) — every index visited exactly once.
func TestSweepPoolCoversRangeExactlyOnce(t *testing.T) {
	for _, lanes := range []int{1, 2, 3, 8} {
		for _, n := range []uint64{1, 63, 64, 65, 129, 1000, 8192} {
			p := newSweepPool(lanes)
			counts := make([]int32, n)
			p.sweep(n, func(lo, hi uint64) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&counts[i], 1)
				}
			})
			p.close()
			for i, c := range counts {
				if c != 1 {
					t.Fatalf("lanes=%d n=%d: index %d visited %d times", lanes, n, i, c)
				}
			}
		}
	}
}

// TestStrideDeltasMatchExpandIndex pins the stride-table identity the
// masked kernels rely on: for every compact k, the expanded index advances
// by exactly delta[TrailingZeros64(k+1)].
func TestStrideDeltasMatchExpandIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		nbits := 4 + rng.Intn(10)
		var qs []int
		for q := 0; q < nbits; q++ {
			if rng.Intn(3) == 0 {
				qs = append(qs, q)
			}
		}
		if len(qs) == 0 {
			qs = append(qs, rng.Intn(nbits))
		}
		masks := insertMasks(qs)
		total := uint64(1) << uint(nbits-len(qs))
		d := strideDeltas(nil, uint64(1)<<uint(nbits), masks)
		for k := uint64(0); k+1 < total; k++ {
			want := expandIndex(k+1, masks) - expandIndex(k, masks)
			got := d[trailingZeros(k+1)]
			if got != want {
				t.Fatalf("bits=%v k=%d: delta %d, want %d", qs, k, got, want)
			}
		}
	}
}

// trailingZeros mirrors the kernels' bits.TrailingZeros64 use without
// importing math/bits into the test.
func trailingZeros(x uint64) int {
	n := 0
	for x&1 == 0 {
		x >>= 1
		n++
	}
	return n
}

func TestClampWorkers(t *testing.T) {
	m := runtime.GOMAXPROCS(0)
	for _, c := range []struct{ in, want int }{
		{0, m}, {-3, m}, {1, 1}, {m, m}, {m + 5, m},
	} {
		if got := clampWorkers(c.in); got != c.want {
			t.Errorf("clampWorkers(%d) = %d, want %d (GOMAXPROCS=%d)", c.in, got, c.want, m)
		}
	}
}
