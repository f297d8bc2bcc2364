package sim

import (
	"fmt"

	"trios/internal/circuit"
)

// EquivalenceTolerance is the fidelity slack allowed when comparing states;
// it absorbs float64 rounding across a few hundred gates.
const EquivalenceTolerance = 1e-9

// Equivalent reports whether two circuits on the same number of qubits
// implement the same unitary up to global phase, checked by applying both to
// `trials` random states. This probabilistic check is exact with probability
// 1 for Haar-random inputs; a handful of trials leaves no realistic escape
// for a buggy decomposition.
//
// The check runs on the engine's fused dense kernels: each circuit compiles
// to a fused program once and is re-run across trials. Use Engine.Verify to
// additionally dispatch Clifford pairs to the stabilizer backend. No
// production code calls it: it is the unitary-equivalence oracle the tests
// of decompose, rewrite, optimize, qasm, compiler and benchmarks share,
// exported because those tests live in other packages.
func Equivalent(a, b *circuit.Circuit, trials int, seed int64) (bool, error) {
	if a.NumQubits != b.NumQubits {
		return false, fmt.Errorf("sim: qubit count mismatch %d vs %d", a.NumQubits, b.NumQubits)
	}
	return (&Engine{}).denseEquivalent(a, b, trials, seed)
}

// CompiledEquivalent verifies a compiled physical circuit against its logical
// source. The logical circuit has nLogical qubits; the physical circuit runs
// on nPhysical >= nLogical device qubits. initial maps logical qubit -> the
// physical qubit it starts on, and final maps logical qubit -> the physical
// qubit holding it after routing SWAPs.
//
// The check embeds a random logical state into the device (extra device
// qubits in |0>), runs the compiled circuit, undoes the final placement
// permutation, and compares against the logical circuit's output.
func CompiledEquivalent(logical, physical *circuit.Circuit, nPhysical int, initial, final []int, trials int, seed int64) (bool, error) {
	nLogical := logical.NumQubits
	if len(initial) != nLogical || len(final) != nLogical {
		return false, fmt.Errorf("sim: layout length %d/%d, want %d", len(initial), len(final), nLogical)
	}
	if physical.NumQubits > nPhysical {
		return false, fmt.Errorf("sim: physical circuit uses %d qubits, device has %d", physical.NumQubits, nPhysical)
	}
	// The reference logical state is evolved by the logical circuit and
	// embedded at the *final* physical positions; the compiled side embeds
	// the input at the *initial* positions and runs the physical circuit.
	// Both circuits run as fused programs on the engine's dense kernels.
	return (&Engine{}).denseCompiled(logical, physical, nPhysical, initial, final, trials, seed)
}

// embed places logical qubit i of s at physical position place[i] of a
// larger register, with all other physical qubits in |0>.
func embed(s *State, nPhysical int, place []int) *State {
	out := NewState(nPhysical)
	out.amp[0] = 0
	for i := uint64(0); i < uint64(len(s.amp)); i++ {
		var j uint64
		for q := 0; q < s.n; q++ {
			if i&(1<<uint(q)) != 0 {
				j |= 1 << uint(place[q])
			}
		}
		out.amp[j] = s.amp[i]
	}
	return out
}

// ClassicalOutput runs a circuit on a computational basis input and returns
// the resulting basis state, failing if the output is not a basis state
// (probability of the max-amplitude state < 1-tol). Useful for verifying
// reversible/arithmetic benchmark circuits by truth table.
func ClassicalOutput(c *circuit.Circuit, input uint64) (uint64, error) {
	s := NewBasisState(c.NumQubits, input)
	if err := s.ApplyCircuit(c); err != nil {
		return 0, err
	}
	best, bestP := uint64(0), 0.0
	for i := uint64(0); i < uint64(len(s.amp)); i++ {
		if p := s.Probability(i); p > bestP {
			best, bestP = i, p
		}
	}
	if bestP < 1-1e-6 {
		return 0, fmt.Errorf("sim: output not classical (max probability %.6f)", bestP)
	}
	return best, nil
}
