package sim

import (
	"fmt"

	"trios/internal/circuit"
)

// IsClassical reports whether a circuit consists only of classical
// reversible gates (X, CX, CCX, MCX, SWAP, barriers), so its action on basis
// states can be computed with bit operations instead of a statevector.
func IsClassical(c *circuit.Circuit) bool {
	for _, g := range c.Gates {
		switch g.Name {
		case circuit.X, circuit.CX, circuit.CCX, circuit.MCX, circuit.SWAP, circuit.Barrier,
			circuit.RCCX, circuit.RCCXdg:
			// Margolus gates permute basis states like CCX; their relative
			// phases are invisible to basis-in/basis-out propagation.
		default:
			return false
		}
	}
	return true
}

// ClassicalRun propagates a basis state through a classical reversible
// circuit using bitwise operations. It returns an error if the circuit
// contains non-classical gates; use IsClassical to pre-check.
//
// This makes exhaustive truth-table verification of the paper's CnX and
// arithmetic benchmarks cheap: 2^19 inputs on a 19-qubit circuit cost bit
// operations, not statevector sweeps.
func ClassicalRun(c *circuit.Circuit, input uint64) (uint64, error) {
	state := input
	for i, g := range c.Gates {
		switch g.Name {
		case circuit.X:
			state ^= 1 << uint(g.Qubits[0])
		case circuit.CX:
			if state&(1<<uint(g.Qubits[0])) != 0 {
				state ^= 1 << uint(g.Qubits[1])
			}
		case circuit.CCX, circuit.RCCX, circuit.RCCXdg:
			m := uint64(1)<<uint(g.Qubits[0]) | uint64(1)<<uint(g.Qubits[1])
			if state&m == m {
				state ^= 1 << uint(g.Qubits[2])
			}
		case circuit.MCX:
			var m uint64
			for _, q := range g.Controls() {
				m |= 1 << uint(q)
			}
			if state&m == m {
				state ^= 1 << uint(g.Target())
			}
		case circuit.SWAP:
			a, b := uint(g.Qubits[0]), uint(g.Qubits[1])
			ba, bb := state&(1<<a) != 0, state&(1<<b) != 0
			if ba != bb {
				state ^= 1<<a | 1<<b
			}
		case circuit.Barrier:
		default:
			return 0, fmt.Errorf("sim: gate %d (%v) is not classical", i, g.Name)
		}
	}
	return state, nil
}

// SameClassicalFunction exhaustively checks that two classical circuits on
// the same qubit count compute the same permutation of basis states, up to
// maxInputs inputs (all inputs if the space is smaller). No production code
// calls it: it is the reference the decompose tests check multi-controlled
// decompositions against, exported because they live in another package.
func SameClassicalFunction(a, b *circuit.Circuit, maxInputs int) (bool, error) {
	if a.NumQubits != b.NumQubits {
		return false, fmt.Errorf("sim: qubit count mismatch %d vs %d", a.NumQubits, b.NumQubits)
	}
	n := uint64(1) << uint(a.NumQubits)
	if maxInputs > 0 && uint64(maxInputs) < n {
		n = uint64(maxInputs)
	}
	for in := uint64(0); in < n; in++ {
		oa, err := ClassicalRun(a, in)
		if err != nil {
			return false, err
		}
		ob, err := ClassicalRun(b, in)
		if err != nil {
			return false, err
		}
		if oa != ob {
			return false, nil
		}
	}
	return true, nil
}
