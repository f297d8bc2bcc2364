package noise

import (
	"fmt"
	"math"
	"testing"

	"trios/internal/circuit"
	"trios/internal/sched"
	"trios/internal/topo"
)

// SuccessProbabilityEdges is SuccessProbability with per-edge two-qubit
// errors: every CX is charged its own coupling's error rate (errs, keyed by
// the ordered pair) instead of the device average. The circuit must already
// be compiled (only basis gates on coupled pairs); SWAPs count as 3 uses of
// their edge. It is the independent reference SuccessWithCalibration is held
// to.
func SuccessProbabilityEdges(c *circuit.Circuit, p Params, errs map[[2]int]float64) (float64, error) {
	if p.T1 <= 0 || p.T2 <= 0 {
		return 0, fmt.Errorf("noise: non-positive coherence time")
	}
	logP := 0.0
	oneQ, meas := 0, 0
	for i, g := range c.Gates {
		switch {
		case g.Name == circuit.Barrier:
		case g.Name == circuit.Measure:
			meas++
		case g.IsTwoQubit():
			a, b := g.Qubits[0], g.Qubits[1]
			e, ok := errs[[2]int{min(a, b), max(a, b)}]
			if !ok {
				return 0, fmt.Errorf("gate %d: (%d,%d) is not a coupling", i, a, b)
			}
			uses := 1
			if g.Name == circuit.SWAP {
				uses = 3
			}
			logP += float64(uses) * math.Log(1-e)
		case len(g.Qubits) == 1:
			oneQ++
		default:
			return 0, fmt.Errorf("noise: gate %d (%v) not supported by the per-edge model; compile first", i, g.Name)
		}
	}
	d, err := sched.Duration(c, p.Times)
	if err != nil {
		return 0, err
	}
	logP += float64(oneQ)*math.Log(1-p.OneQubitError) + float64(meas)*math.Log(1-p.ReadoutError)
	exponent := d/p.T1 + d/p.T2
	if p.Coherence == CoherencePerQubit {
		exponent *= float64(activeQubits(c))
	}
	return math.Exp(logP - exponent), nil
}

// uniformEdges assigns the same error to every coupling of g.
func uniformEdges(g *topo.Graph, e float64) map[[2]int]float64 {
	errs := make(map[[2]int]float64, g.NumEdges())
	for _, edge := range g.Edges() {
		errs[edge] = e
	}
	return errs
}

func TestSuccessProbabilityEdgesMatchesUniform(t *testing.T) {
	// With a uniform edge map, the per-edge estimate equals the global one.
	g := topo.Line(3)
	p := Johannesburg0819()
	p.ReadoutError = 0
	errs := uniformEdges(g, p.TwoQubitError)
	c := circuit.New(3)
	c.H(0)
	c.CX(0, 1)
	c.CX(1, 2)
	c.SWAP(0, 1)
	global, err := SuccessProbability(c, p)
	if err != nil {
		t.Fatal(err)
	}
	perEdge, err := SuccessProbabilityEdges(c, p, errs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(global-perEdge) > 1e-12 {
		t.Errorf("global %v vs per-edge %v", global, perEdge)
	}
}

func TestSuccessProbabilityEdgesPenalizesHotEdge(t *testing.T) {
	g := topo.Line(3)
	p := Johannesburg0819()
	errs := uniformEdges(g, 0.01)
	c := circuit.New(3)
	c.CX(0, 1)
	before, err := SuccessProbabilityEdges(c, p, errs)
	if err != nil {
		t.Fatal(err)
	}
	errs[[2]int{0, 1}] = 0.3
	after, err := SuccessProbabilityEdges(c, p, errs)
	if err != nil {
		t.Fatal(err)
	}
	if after >= before {
		t.Errorf("hot edge should lower success: %v vs %v", before, after)
	}
}

func TestSuccessProbabilityEdgesRejectsNonCompiled(t *testing.T) {
	g := topo.Line(3)
	errs := uniformEdges(g, 0.01)
	c := circuit.New(3)
	c.CCX(0, 1, 2)
	if _, err := SuccessProbabilityEdges(c, Johannesburg0819(), errs); err == nil {
		t.Error("expected error for undecomposed toffoli")
	}
	c2 := circuit.New(3)
	c2.CX(0, 2) // not a coupling
	if _, err := SuccessProbabilityEdges(c2, Johannesburg0819(), errs); err == nil {
		t.Error("expected error for off-coupling cx")
	}
}
