// Cross-validation of the tableau against the exact statevector. This file
// lives in an external test package because sim now imports stab (the
// engine's stabilizer backend), so in-package stab tests cannot import sim.
package stab_test

import (
	"math"
	"math/rand"
	"testing"

	"trios/internal/circuit"
	"trios/internal/sim"
	"trios/internal/stab"
)

// pauliExpectation computes <psi|P|psi> for a signed Pauli string such as
// "+XIZ" (one letter per qubit) on a statevector.
func pauliExpectation(t *testing.T, psi *sim.State, pauli string) float64 {
	t.Helper()
	phi := psi.Copy()
	names := map[rune]circuit.Name{'X': circuit.X, 'Y': circuit.Y, 'Z': circuit.Z}
	for q, p := range pauli[1:] {
		name, ok := names[p]
		if !ok {
			continue // identity
		}
		if err := phi.ApplyGate(circuit.NewGate(name, []int{q})); err != nil {
			t.Fatal(err)
		}
	}
	ip := real(psi.InnerProduct(phi))
	if pauli[0] == '-' {
		ip = -ip
	}
	return ip
}

// TestAgainstStatevector cross-validates the tableau against the exact
// statevector: after a random Clifford circuit, every stabilizer generator
// must have expectation +1 on the statevector.
func TestAgainstStatevector(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		n := 4
		c := randomCliffordExt(rng, n, 30)
		st := stab.NewState(n)
		if err := st.ApplyCircuit(c); err != nil {
			t.Fatal(err)
		}
		psi := sim.NewState(n)
		if err := psi.ApplyCircuit(c); err != nil {
			t.Fatal(err)
		}
		for i, pauli := range st.Stabilizers() {
			exp := pauliExpectation(t, psi, pauli)
			if math.Abs(exp-1) > 1e-9 {
				t.Fatalf("trial %d generator %d: expectation %v (stabilizers %v)\ncircuit:\n%v",
					trial, i, exp, st.Stabilizers(), c)
			}
		}
	}
}

// TestCliffordUGates verifies the u-gate recognition against statevector.
func TestCliffordUGates(t *testing.T) {
	pi := math.Pi
	cases := []*circuit.Circuit{
		circuit.New(1).U1(pi/2, 0),
		circuit.New(1).U1(-pi/2, 0),
		circuit.New(1).U1(pi, 0),
		circuit.New(1).U2(0, pi, 0), // H
		circuit.New(1).U2(pi/2, pi/2, 0),
		circuit.New(1).U3(pi, 0, pi, 0), // X
		circuit.New(1).U3(pi/2, -pi/2, pi/2, 0),
		circuit.New(1).U3(pi, pi/2, pi/2, 0), // Y
	}
	for ci, c := range cases {
		full := circuit.New(2)
		full.H(0).CX(0, 1) // entangle so phases matter
		full.Append(c.Gates...)
		st := stab.NewState(2)
		if err := st.ApplyCircuit(full); err != nil {
			t.Fatalf("case %d: %v", ci, err)
		}
		psi := sim.NewState(2)
		if err := psi.ApplyCircuit(full); err != nil {
			t.Fatal(err)
		}
		for i, pauli := range st.Stabilizers() {
			if exp := pauliExpectation(t, psi, pauli); math.Abs(exp-1) > 1e-9 {
				t.Fatalf("case %d generator %d: expectation %v", ci, i, exp)
			}
		}
	}
}

// TestExtendedCliffordGatesAgainstStatevector cross-validates the gate set
// added for the engine's dispatch (SX/SXdg, quarter-angle RX/RY/RZ, CP at
// multiples of pi) against the statevector the same way.
func TestExtendedCliffordGatesAgainstStatevector(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 25; trial++ {
		const n = 3
		c := circuit.New(n)
		for i := 0; i < 25; i++ {
			switch rng.Intn(7) {
			case 0:
				c.SX(rng.Intn(n))
			case 1:
				c.SXdg(rng.Intn(n))
			case 2:
				c.RX(float64(rng.Intn(5)-2)*math.Pi/2, rng.Intn(n))
			case 3:
				c.RY(float64(rng.Intn(5)-2)*math.Pi/2, rng.Intn(n))
			case 4:
				c.RZ(float64(rng.Intn(5)-2)*math.Pi/2, rng.Intn(n))
			case 5:
				c.CP(float64(rng.Intn(3)-1)*math.Pi, rng.Intn(n-1)+1, 0)
			case 6:
				p := rng.Perm(n)
				c.CX(p[0], p[1])
			}
		}
		st := stab.NewState(n)
		if err := st.ApplyCircuit(c); err != nil {
			t.Fatal(err)
		}
		psi := sim.NewState(n)
		if err := psi.ApplyCircuit(c); err != nil {
			t.Fatal(err)
		}
		for i, pauli := range st.Stabilizers() {
			if exp := pauliExpectation(t, psi, pauli); math.Abs(exp-1) > 1e-9 {
				t.Fatalf("trial %d generator %d: expectation %v\ncircuit:\n%v", trial, i, exp, c)
			}
		}
	}
}

func randomCliffordExt(rng *rand.Rand, n, gates int) *circuit.Circuit {
	c := circuit.New(n)
	for i := 0; i < gates; i++ {
		switch rng.Intn(6) {
		case 0:
			c.H(rng.Intn(n))
		case 1:
			c.S(rng.Intn(n))
		case 2:
			c.X(rng.Intn(n))
		case 3:
			c.Z(rng.Intn(n))
		case 4:
			p := rng.Perm(n)
			c.CX(p[0], p[1])
		default:
			p := rng.Perm(n)
			c.CZ(p[0], p[1])
		}
	}
	return c
}
