package route

import (
	"math"

	"trios/internal/circuit"
)

// Branch-free scoring primitives shared by the stochastic and lookahead
// routers. The hot sweeps follow the arithmetic-select idiom from the
// branch-avoiding graph-algorithms literature: comparisons become sign
// masks, conditional updates become mask blends, and the only branches left
// are the loop back-edges — so a mispredicted candidate can't stall the
// pipeline.
//
// Caveat, documented once here: the float selects derive their masks from
// the sign bit of a subtraction. On the connected device graphs the routers
// run on, every cost is finite and non-negative, so the subtraction can
// produce neither NaN (needs Inf-Inf, i.e. unreachable pairs) nor -0 as a
// comparison result, and the masks agree exactly with `<` comparisons —
// the golden tests pin this against the branchy legacy arms frozen in
// legacy_test.go, on every registry device.

// eqMask returns an all-ones int when x == y and 0 otherwise, for small
// non-negative x and y (qubit indices). x^y is 0 iff equal; subtracting 1
// turns exactly that case negative, and an arithmetic shift smears the sign
// bit across the word.
func eqMask(x, y int) int { return ((x ^ y) - 1) >> 63 }

// swapSel maps physical qubit p through the hypothetical swap (e0, e1)
// without branching: the xor delta e0^e1 is applied only when p is one of
// the endpoints.
func swapSel(p, e0, e1, x int) int {
	return p ^ (x & (eqMask(p, e0) | eqMask(p, e1)))
}

// winDelta is one window entry's score change under the hypothetical swap
// (e0, e1): the entry's cost with operands mapped through the swap, minus
// its cached at-rest term. The trio arm is the same meeting-point min-sum
// (sign-mask min, strict <, first wins ties) as the full sweep. The caller
// only uses this when every term is exact in float64, so baseline + delta
// reproduces the full window sum bit for bit.
func winDelta(wg *winGate, term float64, pairC, trioC []float64, trioAdj float64, nq, e0, e1, x int) float64 {
	p0 := swapSel(wg.p0, e0, e1, x)
	p1 := swapSel(wg.p1, e0, e1, x)
	if wg.arity == 2 {
		return wg.w*pairC[p0*nq+p1] - term
	}
	p2 := swapSel(wg.p2, e0, e1, x)
	s0 := trioC[p0*nq+p0] + trioC[p0*nq+p1] + trioC[p0*nq+p2]
	s1 := trioC[p1*nq+p0] + trioC[p1*nq+p1] + trioC[p1*nq+p2]
	s2 := trioC[p2*nq+p0] + trioC[p2*nq+p1] + trioC[p2*nq+p2]
	m1 := uint64(int64(math.Float64bits(s1-s0)) >> 63)
	b01 := math.Float64bits(s1)&m1 | math.Float64bits(s0)&^m1
	f01 := math.Float64frombits(b01)
	m2 := uint64(int64(math.Float64bits(s2-f01)) >> 63)
	best := math.Float64frombits(math.Float64bits(s2)&m2 | b01&^m2)
	return wg.w*(best-trioAdj) - term
}

// appendWinGate captures one window gate's scoring shape for the lookahead
// sweep: physical operands resolved against the current (fixed) layout and
// the accumulation weight. Gates with more than three operands score 0 in
// the legacy closure and are skipped here for the same effect.
func appendWinGate(win []winGate, s *state, gate circuit.Gate, w float64) []winGate {
	switch len(gate.Qubits) {
	case 2:
		return append(win, winGate{w: w, arity: 2,
			p0: s.l.Phys(gate.Qubits[0]), p1: s.l.Phys(gate.Qubits[1])})
	case 3:
		return append(win, winGate{w: w, arity: 3,
			p0: s.l.Phys(gate.Qubits[0]), p1: s.l.Phys(gate.Qubits[1]), p2: s.l.Phys(gate.Qubits[2])})
	}
	return win
}
