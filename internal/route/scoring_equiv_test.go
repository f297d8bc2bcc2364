package route

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"trios/internal/circuit"
	"trios/internal/layout"
	"trios/internal/topo"
)

// randMixedCircuit builds a random circuit of 1q/2q gates with an optional
// CCX fraction, the workload the scoring-equivalence suite routes.
func randMixedCircuit(rng *rand.Rand, n, gates int, withCCX bool) *circuit.Circuit {
	c := circuit.New(n)
	for i := 0; i < gates; i++ {
		r := rng.Intn(10)
		switch {
		case r < 2:
			c.H(rng.Intn(n))
		case r < 3:
			c.T(rng.Intn(n))
		case withCCX && r < 5:
			a, b, d := rng.Intn(n), rng.Intn(n), rng.Intn(n)
			if a != b && b != d && a != d {
				c.CCX(a, b, d)
			} else {
				c.H(a)
			}
		default:
			a := rng.Intn(n)
			b := rng.Intn(n - 1)
			if b >= a {
				b++
			}
			c.CX(a, b)
		}
	}
	return c
}

func equivEdgeWeight(a, b int) float64 {
	if a > b {
		a, b = b, a
	}
	return -math.Log(0.99 - 0.002*float64((a*31+b*17)%9))
}

// TestBranchlessScoringMatchesLegacy is the golden suite for the branchless
// router rewrite: on every paper device, for seeded random circuits (with
// and without intact CCX gates) and both cost models, the branchless
// stochastic and lookahead routers must produce byte-identical output —
// same gate stream, same swap count, same final layout — as the legacy
// scoring loops frozen in legacy_test.go. This pins the RNG streams, the improving-set
// contents, and every float comparison.
func TestBranchlessScoringMatchesLegacy(t *testing.T) {
	devices := []*topo.Graph{topo.Johannesburg(), topo.Grid5x4(), topo.Line20(), topo.Clusters5x4()}
	weights := map[string]func(a, b int) float64{"hops": nil, "noise": equivEdgeWeight}
	for _, g := range devices {
		n := g.NumQubits()
		for wname, w := range weights {
			for seed := int64(1); seed <= 4; seed++ {
				rng := rand.New(rand.NewSource(seed * 977))
				c := randMixedCircuit(rng, n, 120, true)
				init := layout.Identity(n)

				newS := &Stochastic{Seed: seed, TrioAware: true, Weight: w}
				oldS := (*legacyStochastic)(newS)
				resNew, errNew := newS.Route(c, g, init)
				resOld, errOld := oldS.Route(c, g, init)
				compareRouted(t, g.Name()+"/stochastic/"+wname, resNew, errNew, resOld, errOld)

				newL := &Lookahead{Seed: seed, TrioAware: true, Weight: w}
				oldL := (*legacyLookahead)(newL)
				resNew, errNew = newL.Route(c, g, init)
				resOld, errOld = oldL.Route(c, g, init)
				compareRouted(t, g.Name()+"/lookahead/"+wname, resNew, errNew, resOld, errOld)
			}
		}
	}
}

func compareRouted(t *testing.T, label string, resNew *Result, errNew error, resOld *Result, errOld error) {
	t.Helper()
	if (errNew == nil) != (errOld == nil) {
		t.Fatalf("%s: error mismatch: new %v, legacy %v", label, errNew, errOld)
	}
	if errNew != nil {
		return
	}
	if !reflect.DeepEqual(resNew.Circuit.Gates, resOld.Circuit.Gates) {
		t.Fatalf("%s: gate streams diverge (new %d gates, legacy %d)", label, len(resNew.Circuit.Gates), len(resOld.Circuit.Gates))
	}
	if resNew.SwapsAdded != resOld.SwapsAdded {
		t.Fatalf("%s: swap counts diverge: new %d, legacy %d", label, resNew.SwapsAdded, resOld.SwapsAdded)
	}
	if !reflect.DeepEqual(resNew.Final.VirtualToPhys(), resOld.Final.VirtualToPhys()) {
		t.Fatalf("%s: final layouts diverge", label)
	}
}
