package sim

import (
	"math/rand"
	"testing"

	"trios/internal/circuit"
)

// randomMixedCircuit exercises every kernel shape: 1q gates, controlled
// gates with 1-3 controls, phase gates, swaps, and Margolus sequences.
func randomMixedCircuit(rng *rand.Rand, n, gates int) *circuit.Circuit {
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
			a, b := distinctPair(rng, n)
			c.CX(a, b)
		case 4:
			a, b := distinctPair(rng, n)
			c.CZ(a, b)
		case 5:
			a, b := distinctPair(rng, n)
			c.CP(rng.Float64()*6, a, b)
		case 6:
			a, b := distinctPair(rng, n)
			c.SWAP(a, b)
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

// TestKernelsBitIdenticalToLegacy is the golden contract of the kernel
// rewrite: the branch-free compact sweeps must produce exactly the same
// amplitudes as the preserved full-scan loops — not merely close, but
// bit-for-bit equal, because the serial Monte-Carlo path's fixed-seed
// reproducibility depends on it.
func TestKernelsBitIdenticalToLegacy(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(4)
		c := randomMixedCircuit(rng, n, 40)
		a := NewRandomState(n, seed+100)
		b := a.Copy()
		if err := a.ApplyCircuit(c); err != nil {
			t.Fatal(err)
		}
		if err := b.legacyApplyCircuit(c); err != nil {
			t.Fatal(err)
		}
		for i := range a.amp {
			if a.amp[i] != b.amp[i] {
				t.Fatalf("seed %d: amplitude %d differs: kernel %v, legacy %v",
					seed, i, a.amp[i], b.amp[i])
			}
		}
	}
}

// TestMonteCarloBitIdenticalToLegacy proves the refactor's core determinism
// guarantee: for any fixed seed, the serial Monte-Carlo path returns results
// bit-identical to the pre-refactor implementation.
func TestMonteCarloBitIdenticalToLegacy(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 5; trial++ {
		n := 3 + rng.Intn(3)
		c := randomMixedCircuit(rng, n, 15)
		// Terminal measurements on every qubit, as compiled circuits have.
		for q := 0; q < n; q++ {
			c.Measure(q)
		}
		noise := PauliNoise{OneQubitError: 0.002, TwoQubitError: 0.02, ReadoutError: 0.01}
		seed := int64(trial) * 17
		got, err := MonteCarloSuccess(c, noise, 0, ^uint64(0), 300, seed)
		if err != nil {
			t.Fatal(err)
		}
		want, err := monteCarloSuccessLegacy(c, noise, 0, ^uint64(0), 300, seed)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("trial %d: MonteCarloSuccess = %v, legacy = %v", trial, got, want)
		}
	}
}

func TestResetRestoresZeroState(t *testing.T) {
	s := NewRandomState(5, 3)
	s.Reset()
	if s.Probability(0) != 1 {
		t.Error("Reset did not restore |0...0>")
	}
	for i := uint64(1); i < 32; i++ {
		if s.amp[i] != 0 {
			t.Errorf("amplitude %d nonzero after Reset", i)
		}
	}
}
