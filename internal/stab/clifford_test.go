package stab

import (
	"math"
	"math/rand"
	"testing"

	"trios/internal/circuit"
)

// TestClassifierAgreesWithBackend is the contract between the structural
// classifier (circuit.IsCliffordGate) and the tableau backend: every gate
// the classifier accepts must apply without error, and every gate it
// rejects must be refused — otherwise the engine's auto-dispatch would pick
// a backend that cannot simulate the circuit (or needlessly fall back to
// the exponential dense path).
func TestClassifierAgreesWithBackend(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	angles := []float64{
		0, math.Pi / 2, math.Pi, 3 * math.Pi / 2, -math.Pi / 2, 2 * math.Pi,
		math.Pi / 4, -math.Pi / 4, 0.3, 1.7, -2.9,
	}
	angle := func() float64 { return angles[rng.Intn(len(angles))] }
	const n = 4
	var gates []circuit.Gate
	for _, name := range []circuit.Name{
		circuit.I, circuit.X, circuit.Y, circuit.Z, circuit.H,
		circuit.S, circuit.Sdg, circuit.T, circuit.Tdg,
		circuit.SX, circuit.SXdg,
	} {
		gates = append(gates, circuit.NewGate(name, []int{rng.Intn(n)}))
	}
	for trial := 0; trial < 200; trial++ {
		for _, name := range []circuit.Name{circuit.RX, circuit.RY, circuit.RZ, circuit.U1} {
			gates = append(gates, circuit.NewGate(name, []int{rng.Intn(n)}, angle()))
		}
		gates = append(gates,
			circuit.NewGate(circuit.U2, []int{rng.Intn(n)}, angle(), angle()),
			circuit.NewGate(circuit.U3, []int{rng.Intn(n)}, angle(), angle(), angle()),
			circuit.NewGate(circuit.CP, []int{0, 1}, angle()),
			circuit.NewGate(circuit.CX, []int{0, 1}),
			circuit.NewGate(circuit.CZ, []int{1, 2}),
			circuit.NewGate(circuit.SWAP, []int{2, 3}),
			circuit.NewGate(circuit.CCX, []int{0, 1, 2}),
			circuit.NewGate(circuit.CCZ, []int{0, 1, 2}),
			circuit.NewGate(circuit.RCCX, []int{1, 2, 3}),
		)
	}
	s := NewState(n)
	for _, g := range gates {
		err := s.ApplyGate(g)
		classified := circuit.IsCliffordGate(g)
		if classified && err != nil {
			t.Errorf("classifier accepts %v but backend errors: %v", g, err)
		}
		if !classified && err == nil {
			t.Errorf("classifier rejects %v but backend applied it", g)
		}
		// Reset after any error: a failed u3 may have partially applied.
		if err != nil {
			s.Reset()
		}
	}
}

// IsClifford reports whether every gate of a circuit is recognized as
// Clifford by a dry run on a scratch tableau: the reference the structural
// classifier circuit.IsClifford is held to.
func IsClifford(c *circuit.Circuit) bool {
	s := NewState(max(1, c.NumQubits))
	for i := range c.Gates {
		if c.Gates[i].Name == circuit.Measure {
			continue
		}
		if err := s.ApplyGate(c.Gates[i]); err != nil {
			return false
		}
	}
	return true
}

// TestIsCliffordMatchesCircuitClassifier checks the circuit-level dry-run
// classifier against the structural one on random circuits.
func TestIsCliffordMatchesCircuitClassifier(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		c := circuit.New(4)
		for i := 0; i < 12; i++ {
			switch rng.Intn(6) {
			case 0:
				c.H(rng.Intn(4))
			case 1:
				c.S(rng.Intn(4))
			case 2:
				c.CX(rng.Intn(2), 2+rng.Intn(2))
			case 3:
				if rng.Intn(4) == 0 {
					c.T(rng.Intn(4))
				} else {
					c.Z(rng.Intn(4))
				}
			case 4:
				c.RZ(float64(rng.Intn(5))*math.Pi/2, rng.Intn(4))
			case 5:
				c.U3(float64(rng.Intn(4))*math.Pi/2, float64(rng.Intn(4))*math.Pi/2,
					rng.Float64(), rng.Intn(4))
			}
		}
		if got, want := IsClifford(c), circuit.IsClifford(c); got != want {
			t.Fatalf("trial %d: stab.IsClifford=%v, circuit.IsClifford=%v for\n%v",
				trial, got, want, c)
		}
	}
}

// TestExtendedGates verifies the newly supported Clifford gates against
// their defining decompositions on random stabilizer states.
func TestExtendedGates(t *testing.T) {
	build := func(f func(s *State)) *State {
		s := NewState(2)
		// A non-trivial fixed state: (|00>+|11>)/sqrt2 with a phase twist.
		s.H(0)
		s.CX(0, 1)
		s.S(1)
		f(s)
		return s
	}
	cases := []struct {
		name string
		gate circuit.Gate
		ref  func(s *State)
	}{
		{"sx=HSH", circuit.NewGate(circuit.SX, []int{0}), func(s *State) { s.H(0); s.S(0); s.H(0) }},
		{"sxdg=HSdgH", circuit.NewGate(circuit.SXdg, []int{0}), func(s *State) { s.H(0); s.sdg(0); s.H(0) }},
		{"rz(pi)=Z", circuit.NewGate(circuit.RZ, []int{1}, math.Pi), func(s *State) { s.Z(1) }},
		{"rx(pi)=X", circuit.NewGate(circuit.RX, []int{1}, math.Pi), func(s *State) { s.X(1) }},
		{"ry(pi)=Y", circuit.NewGate(circuit.RY, []int{0}, math.Pi), func(s *State) { s.Y(0) }},
		{"rx(pi/2)=H.S.H", circuit.NewGate(circuit.RX, []int{0}, math.Pi/2), func(s *State) { s.H(0); s.S(0); s.H(0) }},
		{"cp(pi)=CZ", circuit.NewGate(circuit.CP, []int{0, 1}, math.Pi), func(s *State) { s.CZ(0, 1) }},
		{"cp(0)=I", circuit.NewGate(circuit.CP, []int{0, 1}, 0), func(s *State) {}},
	}
	for _, tc := range cases {
		got := build(func(s *State) {
			if err := s.ApplyGate(tc.gate); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
		})
		want := build(tc.ref)
		if !got.Equal(want) {
			t.Errorf("%s: states differ\n got %v\nwant %v", tc.name, got.Stabilizers(), want.Stabilizers())
		}
	}
}

func TestReset(t *testing.T) {
	s := NewState(3)
	s.H(0)
	s.CX(0, 1)
	s.S(2)
	s.Reset()
	if !s.Equal(NewState(3)) {
		t.Error("Reset did not restore |000>")
	}
}
