package rewrite

import (
	"math/rand"
	"testing"

	"trios/internal/circuit"
)

// The cases in this file are the hand-built circuits the retired pairwise
// cancel loop was tested on, run against the saturating engine that
// replaced it: every cancellation the loop made, the engine makes too, and
// a measure, a barrier or a gate that does not commute still stops a pair
// from cancelling. saturateChecked also simulates each result against its
// input.

func TestCancelInversePairs(t *testing.T) {
	c := circuit.New(2)
	c.H(0).H(0)         // cancels
	c.CX(0, 1).CX(0, 1) // cancels
	c.T(0).Tdg(0)       // cancels
	c.X(1)              // stays
	out, _ := saturateChecked(t, c, 1)
	if len(out.Gates) != 1 || out.Gates[0].Name != circuit.X {
		t.Errorf("optimized = %v", gatesOf(out))
	}
}

func TestCancelChains(t *testing.T) {
	// h t t† h: removing the inner pair exposes the outer pair.
	c := circuit.New(1)
	c.H(0).T(0).Tdg(0).H(0)
	if out, _ := saturateChecked(t, c, 2); len(out.Gates) != 0 {
		t.Errorf("chain not fully cancelled: %v", gatesOf(out))
	}
}

func TestNoCancelAcrossInterveningGate(t *testing.T) {
	c := circuit.New(2)
	c.CX(0, 1).H(1).CX(0, 1) // H on the target blocks cancellation
	if out, _ := saturateChecked(t, c, 3); out.CountName(circuit.CX) != 2 {
		t.Errorf("incorrectly cancelled across intervening gate: %v", gatesOf(out))
	}
}

func TestCancelAcrossSpectatorGate(t *testing.T) {
	// A gate on an unrelated qubit does not block cancellation.
	c := circuit.New(3)
	c.CX(0, 1).H(2).CX(0, 1)
	out, _ := saturateChecked(t, c, 4)
	if len(out.Gates) != 1 || out.Gates[0].Name != circuit.H {
		t.Errorf("spectator blocked cancellation: %v", gatesOf(out))
	}
}

func TestBarrierBlocksCancellation(t *testing.T) {
	c := circuit.New(1)
	c.H(0).Barrier(0).H(0)
	if out, _ := saturateChecked(t, c, 5); out.CountName(circuit.H) != 2 {
		t.Errorf("cancelled across barrier: %v", gatesOf(out))
	}
}

func TestMeasureBlocksCancellation(t *testing.T) {
	c := circuit.New(1)
	c.X(0).Measure(0).X(0)
	if out, _ := Saturate(c, Options{}); out.CountName(circuit.X) != 2 {
		t.Errorf("cancelled across measure: %v", gatesOf(out))
	}
}

func TestRotationMerging(t *testing.T) {
	c := circuit.New(1)
	c.RZ(0.3, 0).RZ(0.4, 0)
	out, _ := saturateChecked(t, c, 7)
	if len(out.Gates) != 1 || out.Gates[0].Params[0] != 0.7 {
		t.Errorf("rz merge: %v", gatesOf(out))
	}
	// Opposite rotations vanish entirely.
	c2 := circuit.New(1)
	c2.RX(0.5, 0).RX(-0.5, 0)
	if out2, _ := saturateChecked(t, c2, 8); len(out2.Gates) != 0 {
		t.Errorf("rx(+a) rx(-a) not removed: %v", gatesOf(out2))
	}
}

func TestSymmetricGateCancellation(t *testing.T) {
	c := circuit.New(2)
	c.CZ(0, 1).CZ(1, 0) // symmetric: cancels despite operand order
	c.SWAP(0, 1).SWAP(1, 0)
	if out, _ := saturateChecked(t, c, 9); len(out.Gates) != 0 {
		t.Errorf("symmetric pairs not cancelled: %v", gatesOf(out))
	}
}

func TestCPInverseEitherOrder(t *testing.T) {
	c := circuit.New(2)
	c.CP(0.4, 0, 1).CP(-0.4, 1, 0)
	if out, _ := saturateChecked(t, c, 10); len(out.Gates) != 0 {
		t.Errorf("cp pair not cancelled: %v", gatesOf(out))
	}
	c2 := circuit.New(2)
	c2.CP(0.4, 0, 1).CP(0.4, 1, 0) // same sign: merges, never vanishes
	if out, _ := saturateChecked(t, c2, 11); len(out.Gates) == 0 {
		t.Errorf("cp same-sign wrongly cancelled: %v", gatesOf(out))
	}
}

func TestCCXControlOrderCancellation(t *testing.T) {
	c := circuit.New(3)
	c.CCX(0, 1, 2).CCX(1, 0, 2) // controls swapped: same gate
	if out, _ := saturateChecked(t, c, 12); len(out.Gates) != 0 {
		t.Errorf("ccx pair not cancelled: %v", gatesOf(out))
	}
	c2 := circuit.New(3)
	c2.CCX(0, 1, 2).CCX(0, 2, 1) // different target: must NOT cancel
	if out, _ := saturateChecked(t, c2, 13); out.CountName(circuit.CCX) != 2 {
		t.Errorf("different-target ccx wrongly cancelled: %v", gatesOf(out))
	}
}

func TestIdentityAndNullRotationsDropped(t *testing.T) {
	c := circuit.New(1)
	c.I(0).RZ(0, 0).U1(0, 0).H(0)
	out, _ := saturateChecked(t, c, 14)
	if len(out.Gates) != 1 || out.Gates[0].Name != circuit.H {
		t.Errorf("identities not dropped: %v", gatesOf(out))
	}
}

func TestCancelPreservesSemanticsOnRandomCircuits(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 15; trial++ {
		saturateChecked(t, randomCircuitWithRedundancy(rng, 4, 40), int64(trial))
	}
}

func TestCancelShrinksRedundantCircuits(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	total, shrunk := 0, 0
	for trial := 0; trial < 10; trial++ {
		c := randomCircuitWithRedundancy(rng, 4, 40)
		out, _ := Saturate(c, Options{})
		total += len(c.Gates)
		shrunk += len(out.Gates)
	}
	if shrunk >= total {
		t.Errorf("no shrinkage on redundant circuits: %d -> %d", total, shrunk)
	}
}

// randomCircuitWithRedundancy injects immediate inverse pairs with high
// probability so the optimizer has real work to do.
func randomCircuitWithRedundancy(rng *rand.Rand, n, gates int) *circuit.Circuit {
	c := circuit.New(n)
	for i := 0; i < gates; i++ {
		var g circuit.Gate
		switch rng.Intn(5) {
		case 0:
			g = circuit.NewGate(circuit.H, []int{rng.Intn(n)})
		case 1:
			g = circuit.NewGate(circuit.T, []int{rng.Intn(n)})
		case 2:
			g = circuit.NewGate(circuit.RZ, []int{rng.Intn(n)}, rng.Float64())
		case 3:
			p := rng.Perm(n)
			g = circuit.NewGate(circuit.CX, []int{p[0], p[1]})
		default:
			p := rng.Perm(n)
			g = circuit.NewGate(circuit.CCX, []int{p[0], p[1], p[2]})
		}
		c.Append(g)
		if rng.Float64() < 0.4 {
			c.Append(g.Inverse())
		}
	}
	return c
}

func TestCommutingCXCancellation(t *testing.T) {
	// cx(0,1) . cx(0,2) . cx(0,1): the middle gate shares only the control,
	// so the outer pair cancels.
	c := circuit.New(3)
	c.CX(0, 1).CX(0, 2).CX(0, 1)
	out, _ := saturateChecked(t, c, 21)
	if len(out.Gates) != 1 || !out.Gates[0].Equal(circuit.NewGate(circuit.CX, []int{0, 2})) {
		t.Errorf("commuting cancellation failed: %v", gatesOf(out))
	}
}

func TestCommutingThroughZOnControl(t *testing.T) {
	c := circuit.New(2)
	c.CX(0, 1).T(0).RZ(0.5, 0).CX(0, 1)
	out, _ := saturateChecked(t, c, 22)
	if out.CountName(circuit.CX) != 0 {
		t.Errorf("cx pair should cancel through Z-diagonal gates: %v", gatesOf(out))
	}
}

func TestCommutingThroughXOnTarget(t *testing.T) {
	c := circuit.New(2)
	c.CX(0, 1).X(1).CX(0, 1)
	if out, _ := saturateChecked(t, c, 23); out.CountName(circuit.CX) != 0 {
		t.Errorf("cx pair should cancel through X on target: %v", gatesOf(out))
	}
}

func TestNoCancellationThroughBlockingGate(t *testing.T) {
	// H on the control does not commute with CX.
	c := circuit.New(2)
	c.CX(0, 1).H(0).CX(0, 1)
	if out, _ := saturateChecked(t, c, 24); out.CountName(circuit.CX) != 2 {
		t.Errorf("cancelled across non-commuting H: %v", gatesOf(out))
	}
	// X on the control and Z on the target do not commute with CX either,
	// so the pair never cancels as a pair; the engine's conjugation rules
	// instead push the Pauli through both CX and remove them (cx·x0·cx =
	// x0·x1, cx·z1·cx = z0·z1), which the simulation check confirms.
	for i, build := range []func(c *circuit.Circuit){
		func(c *circuit.Circuit) { c.CX(0, 1).X(0).CX(0, 1) },
		func(c *circuit.Circuit) { c.CX(0, 1).Z(1).CX(0, 1) },
	} {
		c := circuit.New(2)
		build(c)
		if out, _ := saturateChecked(t, c, int64(25+i)); out.CountName(circuit.CX) != 0 {
			t.Errorf("case %d: pauli not conjugated through: %v", i, gatesOf(out))
		}
	}
}

func TestCommutingToffoliCancellation(t *testing.T) {
	// A CZ on the two controls is Z-diagonal and commutes with the Toffoli's
	// control action, so the equal Toffolis around it cancel.
	c := circuit.New(3)
	c.CCX(0, 1, 2).CZ(0, 1).CCX(0, 1, 2)
	out, _ := saturateChecked(t, c, 27)
	if out.CountName(circuit.CCX) != 0 || out.CountName(circuit.CZ) != 1 {
		t.Errorf("ccx pair should cancel through the cz, which survives: %v", gatesOf(out))
	}
}

func TestCXOnToffoliControlBlocks(t *testing.T) {
	// CX writes to the Toffoli's control wire, so it does NOT commute —
	// these must not cancel (the two orders differ on |110>).
	c := circuit.New(3)
	c.CCX(0, 1, 2).CX(0, 1).CCX(0, 1, 2)
	if out, _ := saturateChecked(t, c, 28); out.CountName(circuit.CCX) != 2 {
		t.Errorf("ccx wrongly cancelled across cx on its control wire: %v", gatesOf(out))
	}
}

func TestRCCXPairsCancelAdjacent(t *testing.T) {
	// A Margolus compute/uncompute pair on the same wires is an exact
	// identity.
	c := circuit.New(3)
	c.RCCX(0, 1, 2).RCCXdg(0, 1, 2)
	if out, _ := saturateChecked(t, c, 29); len(out.Gates) != 0 {
		t.Errorf("rccx pair not cancelled: %v", gatesOf(out))
	}
	// RCCX is opaque to the commutation rules, so an intervening gate
	// blocks the pair.
	c2 := circuit.New(3)
	c2.RCCX(0, 1, 2).T(0).RCCXdg(0, 1, 2)
	if out, _ := saturateChecked(t, c2, 30); out.CountName(circuit.RCCX) != 1 {
		t.Errorf("rccx wrongly cancelled across an intervening gate: %v", gatesOf(out))
	}
}

func TestMeasureBlocksCommutingCancellation(t *testing.T) {
	c := circuit.New(2)
	c.CX(0, 1).Measure(0).CX(0, 1)
	if out, _ := Saturate(c, Options{}); out.CountName(circuit.CX) != 2 {
		t.Errorf("cancelled across measure: %v", gatesOf(out))
	}
}

func TestCommutingCancellationPreservesSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(88))
	for trial := 0; trial < 20; trial++ {
		saturateChecked(t, randomCommuteCircuit(rng, 4, 35), int64(trial))
	}
}

func TestCommutingCancellationClearsInterleavedPairs(t *testing.T) {
	// Only commutation-aware cancellation clears this circuit: no inverse
	// pair is ever adjacent.
	c := circuit.New(3)
	c.CX(0, 1).T(0).CX(0, 2).CX(0, 1).Tdg(0).CX(0, 2)
	if out, _ := saturateChecked(t, c, 32); len(out.Gates) != 0 {
		t.Errorf("everything should cancel: %v", gatesOf(out))
	}
}

func randomCommuteCircuit(rng *rand.Rand, n, gates int) *circuit.Circuit {
	c := circuit.New(n)
	for i := 0; i < gates; i++ {
		switch rng.Intn(8) {
		case 0:
			c.H(rng.Intn(n))
		case 1:
			c.T(rng.Intn(n))
		case 2:
			c.X(rng.Intn(n))
		case 3:
			c.RZ(rng.Float64(), rng.Intn(n))
		case 4:
			c.SX(rng.Intn(n))
		case 5, 6:
			p := rng.Perm(n)
			c.CX(p[0], p[1])
		default:
			p := rng.Perm(n)
			c.CCX(p[0], p[1], p[2])
		}
	}
	return c
}
