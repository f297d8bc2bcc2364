package route

import (
	"fmt"
	"math"

	"trios/internal/circuit"
	"trios/internal/layout"
	"trios/internal/topo"
)

// Lookahead is a SABRE-style router representing the "lookahead" class of
// prior work the paper's §3 discusses (Wille et al., Baker et al.): when the
// front layer is blocked it picks the SWAP minimizing a weighted sum of the
// front layer's distances and an extended window of upcoming multi-qubit
// gates, instead of greedily finishing one gate at a time. The paper argues
// lookahead "treats the symptoms" of premature decomposition; keeping it in
// the repo lets the ablation quantify exactly that: Trios still wins with a
// lookahead baseline.
//
// With TrioAware set, intact CCX gates participate in scoring via their
// meeting-point distance and are emitted once their trio is connected.
type Lookahead struct {
	Seed int64
	// Window is the extended-set size (default 20 upcoming gates).
	Window int
	// ExtendedWeight scales the extended set's contribution (default 0.5).
	ExtendedWeight float64
	// TrioAware enables CCX routing for the Trios pipeline.
	TrioAware bool
	// Weight, when non-nil, makes swap scoring noise-aware: gate costs are
	// weighted-path distances (-log CNOT success) from the oracle tables
	// instead of hop counts, so the chosen SWAPs steer the window through
	// reliable couplers. A nil Weight keeps legacy scoring bit for bit.
	Weight func(a, b int) float64
	// Oracle, when non-nil, is the precomputed weighted-path table for
	// Weight (a cost model's per-(graph, calibration) memo).
	Oracle *topo.WeightedOracle
}

// winGate is one window gate's scoring shape, captured once per blocked
// iteration: pre-resolved physical operands plus the accumulation weight
// (1 for the front layer, ExtendedWeight for the extended set).
type winGate struct {
	w          float64
	arity      int
	p0, p1, p2 int
}

// Route implements Router.
//
// The scheduler is a DAG ready-queue frontier rather than the former
// O(n)-gates-per-iteration rescan: gates enter a sorted ready list when
// their last predecessor completes, executable ones drain in ascending gate
// order (the exact order the legacy full sweep executed them, since a gate's
// successors always sit later in program order), and window collection scans
// from the first undone gate instead of gate zero. Swap scoring walks only
// the window gates, each cost an O(1) distance-oracle lookup, accumulating
// in the legacy per-gate order so scores — and tie-breaks — are bit-identical
// for any ExtendedWeight.
func (lk *Lookahead) Route(c *circuit.Circuit, g *topo.Graph, initial *layout.Layout) (*Result, error) {
	window := lk.Window
	if window <= 0 {
		window = 20
	}
	extWeight := lk.ExtendedWeight
	if extWeight <= 0 {
		extWeight = 0.5
	}
	s, err := newState(g, initial, lk.Seed, lk.Weight, lk.Oracle)
	if err != nil {
		return nil, err
	}
	dag := circuit.BuildDAG(c)
	n := len(c.Gates)
	done := make([]bool, n)
	remaining := make([]int, n)
	for i := range dag.Preds {
		remaining[i] = len(dag.Preds[i])
	}
	completed := 0
	tab := g.DistTable()
	d, nq := tab.Slab(), tab.NumQubits()
	var worc *topo.WeightedOracle
	if lk.Weight != nil {
		worc = s.weightedOracle()
	}
	edges := g.EdgeList()

	// Cost slabs for the branchless sweep: pairC[a*nq+b] is a 2q gate's
	// remaining routing cost with operands at (a, b); trioC feeds the 3q
	// meeting-point min-sum, whose unweighted form subtracts trioAdj at the
	// end. Building them once turns every per-candidate gate cost into one
	// multiply-add load with no weighted/unweighted branch in the sweep.
	// (Unweighted sums stay exact in float64 — hop counts are tiny ints —
	// and weighted sums add the same worc.Dist values in the same order as
	// the legacy closure, so scores are bit-identical.)
	pairC := make([]float64, nq*nq)
	trioC := make([]float64, nq*nq)
	trioAdj := 0.0
	if worc != nil {
		copy(pairC, worc.Slab())
		copy(trioC, worc.Slab())
	} else {
		for i, h := range d {
			pairC[i] = float64(h - 1)
			trioC[i] = float64(h)
		}
		trioAdj = 2
	}

	// Window delta-scoring state, used when every score term is exact in
	// float64: unweighted costs are small integers and the default extended
	// weight 0.5 keeps each term and every partial sum a dyadic rational, so
	// "baseline + delta over the gates a swap touches" reproduces the full
	// window sum bit for bit while doing a fraction of its work. Any other
	// weighting falls back to the full branchless sweep below.
	deltaOK := worc == nil && extWeight == 0.5
	var (
		winTerm  []float64 // per window entry: weight * cost at rest
		winAt    [][]int32 // per physical qubit: window entries touching it
		winMark  []int     // round stamp for lazily resetting winAt rows
		touchedW []int     // qubits with live winAt rows this round
		winRound int
	)
	if deltaOK {
		winAt = make([][]int32, nq)
		winMark = make([]int, nq)
	}

	// Ready frontier: undone gates whose predecessors have all executed,
	// kept in ascending gate order.
	ready := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if remaining[i] == 0 {
			ready = append(ready, i)
		}
	}
	insertReady := func(idx int) {
		lo, hi := 0, len(ready)
		for lo < hi {
			mid := (lo + hi) / 2
			if ready[mid] < idx {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		ready = append(ready, 0)
		copy(ready[lo+1:], ready[lo:])
		ready[lo] = idx
	}
	markDone := func(i int) {
		done[i] = true
		completed++
		for _, succ := range dag.Succs[i] {
			remaining[succ]--
			if remaining[succ] == 0 {
				insertReady(succ)
			}
		}
	}

	executable := func(gate circuit.Gate) bool {
		switch {
		case gate.Name == circuit.Barrier || len(gate.Qubits) == 1:
			return true
		case len(gate.Qubits) == 2:
			return g.Connected(s.l.Phys(gate.Qubits[0]), s.l.Phys(gate.Qubits[1]))
		case trioGate(gate.Name) && lk.TrioAware:
			target := -1
			if gate.Name != circuit.CCX {
				target = s.l.Phys(gate.Qubits[2])
			}
			return s.trioPlaced(s.l.Phys(gate.Qubits[0]), s.l.Phys(gate.Qubits[1]), s.l.Phys(gate.Qubits[2]), target)
		}
		return false
	}

	lastSwap := [2]int{-1, -1}
	// stall counts swaps since the last executed gate; past the budget the
	// router abandons scoring and routes the first front gate directly,
	// guaranteeing progress (score plateaus can otherwise oscillate).
	stall := 0
	stallBudget := 2 * g.NumQubits()

	// executeReady drains every executable frontier gate in ascending order.
	// Executing a gate can only ready later gates (successors follow their
	// predecessors in program order), so newly readied indices are inserted
	// at or after the cursor and a single forward pass reproduces the legacy
	// sweep-to-fixpoint exactly.
	executeReady := func() error {
		for k := 0; k < len(ready); {
			i := ready[k]
			gate := c.Gates[i]
			if len(gate.Qubits) > 2 && !trioGate(gate.Name) && gate.Name != circuit.Barrier {
				return fmt.Errorf("route: lookahead router cannot handle gate %v (gate %d)", gate.Name, i)
			}
			if trioGate(gate.Name) && !lk.TrioAware {
				return fmt.Errorf("route: lookahead router needs TrioAware for %v (gate %d)", gate.Name, i)
			}
			if executable(gate) {
				s.emitMapped(gate)
				ready = append(ready[:k], ready[k+1:]...)
				markDone(i)
				lastSwap = [2]int{-1, -1}
				stall = 0
			} else {
				k++
			}
		}
		return nil
	}

	head := 0 // every gate below head is done
	var front, extended []circuit.Gate
	var win []winGate
	involved := s.involved
	for completed < n {
		if err := executeReady(); err != nil {
			return nil, err
		}
		if completed == n {
			break
		}

		// Collect the blocked front layer and the extended window, scanning
		// from the first undone gate.
		for head < n && done[head] {
			head++
		}
		front, extended = front[:0], extended[:0]
		count := 0
		for i := head; i < n && count < window; i++ {
			if done[i] {
				continue
			}
			gate := c.Gates[i]
			if len(gate.Qubits) < 2 || gate.Name == circuit.Barrier {
				continue
			}
			if remaining[i] == 0 {
				front = append(front, gate)
			} else {
				extended = append(extended, gate)
			}
			count++
		}
		if len(front) == 0 {
			return nil, fmt.Errorf("route: blocked with empty front layer")
		}

		if stall >= stallBudget {
			// Escape hatch: route the first blocked gate directly.
			gate := front[0]
			switch len(gate.Qubits) {
			case 2:
				if err := s.routePair(gate.Qubits[0], gate.Qubits[1]); err != nil {
					return nil, err
				}
			case 3:
				target := -1
				if gate.Name != circuit.CCX {
					target = gate.Qubits[2]
				}
				if err := s.routeTrioRole(gate.Qubits[0], gate.Qubits[1], gate.Qubits[2], target); err != nil {
					return nil, err
				}
			}
			stall = 0
			lastSwap = [2]int{-1, -1}
			continue
		}

		// Candidate swaps: edges touching front-layer operands.
		for i := range involved {
			involved[i] = false
		}
		for _, gate := range front {
			for _, q := range gate.Qubits {
				involved[s.l.Phys(q)] = true
			}
		}
		bestEdge := [2]int{-1, -1}
		bestScore := 1e18
		// Branchless sweep. Window operands are resolved to physical
		// qubits once (the layout is fixed while scoring), in the legacy
		// accumulation order: front layer at weight 1, then the extended
		// set at ExtendedWeight. Each candidate maps every operand
		// through the hypothetical swap with xor/mask arithmetic instead
		// of mutating the layout, reads its cost from the flat slab, and
		// feeds a sign-mask best-select — no compare-and-branch anywhere
		// on the scoring path, so the sweep pipelines across candidates.
		win = win[:0]
		for _, gate := range front {
			win = appendWinGate(win, s, gate, 1)
		}
		for _, gate := range extended {
			win = appendWinGate(win, s, gate, extWeight)
		}
		bestIdx := -1
		bb := math.Float64bits(bestScore)
		if deltaOK {
			// Baseline pass: score every window gate once at its current
			// position (the exact term the full sweep would add), index
			// the entries by the physical qubits they touch, and sum the
			// at-rest score in window order.
			winRound++
			touchedW = touchedW[:0]
			if cap(winTerm) < len(win) {
				winTerm = make([]float64, len(win))
			}
			winTerm = winTerm[:len(win)]
			score0 := 0.0
			for wi := range win {
				wg := &win[wi]
				var cost float64
				if wg.arity == 2 {
					cost = pairC[wg.p0*nq+wg.p1]
				} else {
					s0 := trioC[wg.p0*nq+wg.p0] + trioC[wg.p0*nq+wg.p1] + trioC[wg.p0*nq+wg.p2]
					s1 := trioC[wg.p1*nq+wg.p0] + trioC[wg.p1*nq+wg.p1] + trioC[wg.p1*nq+wg.p2]
					s2 := trioC[wg.p2*nq+wg.p0] + trioC[wg.p2*nq+wg.p1] + trioC[wg.p2*nq+wg.p2]
					m1 := uint64(int64(math.Float64bits(s1-s0)) >> 63)
					b01 := math.Float64bits(s1)&m1 | math.Float64bits(s0)&^m1
					f01 := math.Float64frombits(b01)
					m2 := uint64(int64(math.Float64bits(s2-f01)) >> 63)
					best := math.Float64frombits(math.Float64bits(s2)&m2 | b01&^m2)
					cost = best - trioAdj
				}
				term := wg.w * cost
				winTerm[wi] = term
				score0 += term
				qs := [3]int{wg.p0, wg.p1, wg.p2}
				for _, q := range qs[:wg.arity] {
					if winMark[q] != winRound {
						winMark[q] = winRound
						winAt[q] = winAt[q][:0]
						touchedW = append(touchedW, q)
					}
					winAt[q] = append(winAt[q], int32(wi))
				}
			}
			for idx, e := range edges {
				if !involved[e[0]] && !involved[e[1]] {
					continue
				}
				if e == lastSwap {
					continue // anti-oscillation
				}
				e0, e1 := e[0], e[1]
				x := e0 ^ e1
				delta := 0.0
				if winMark[e0] == winRound {
					for _, wi := range winAt[e0] {
						wg := &win[wi]
						delta += winDelta(wg, winTerm[wi], pairC, trioC, trioAdj, nq, e0, e1, x)
					}
				}
				if winMark[e1] == winRound {
					for _, wi := range winAt[e1] {
						wg := &win[wi]
						// A gate touching both endpoints already scored in
						// e0's walk: zero its term with the arity-aware
						// touch mask instead of branching.
						am := eqMask(wg.arity, 3)
						t0 := eqMask(wg.p0, e0) | eqMask(wg.p1, e0) | eqMask(wg.p2, e0)&am
						dd := winDelta(wg, winTerm[wi], pairC, trioC, trioAdj, nq, e0, e1, x)
						delta += math.Float64frombits(math.Float64bits(dd) &^ uint64(int64(t0)))
					}
				}
				score := score0 + delta
				m := int(int64(math.Float64bits(score-bestScore)) >> 63)
				um := uint64(m)
				bb = math.Float64bits(score)&um | bb&^um
				bestScore = math.Float64frombits(bb)
				bestIdx = idx&m | bestIdx&^m
			}
			if bestIdx >= 0 {
				bestEdge = edges[bestIdx]
			}
			if bestEdge[0] < 0 {
				return nil, fmt.Errorf("route: no candidate swap for blocked layer")
			}
			s.out.SWAP(bestEdge[0], bestEdge[1])
			s.l.SwapPhys(bestEdge[0], bestEdge[1])
			s.swaps++
			lastSwap = bestEdge
			stall++
			continue
		}
		for idx, e := range edges {
			if !involved[e[0]] && !involved[e[1]] {
				continue
			}
			if e == lastSwap {
				continue // anti-oscillation
			}
			e0, e1 := e[0], e[1]
			x := e0 ^ e1
			score := 0.0
			for _, wg := range win {
				p0 := swapSel(wg.p0, e0, e1, x)
				p1 := swapSel(wg.p1, e0, e1, x)
				if wg.arity == 2 {
					score += wg.w * pairC[p0*nq+p1]
					continue
				}
				p2 := swapSel(wg.p2, e0, e1, x)
				// Meeting-point min-sum over the three operands, with a
				// sign-mask min (strict <, first wins ties — exactly the
				// legacy loop's semantics).
				s0 := trioC[p0*nq+p0] + trioC[p0*nq+p1] + trioC[p0*nq+p2]
				s1 := trioC[p1*nq+p0] + trioC[p1*nq+p1] + trioC[p1*nq+p2]
				s2 := trioC[p2*nq+p0] + trioC[p2*nq+p1] + trioC[p2*nq+p2]
				m1 := uint64(int64(math.Float64bits(s1-s0)) >> 63)
				b01 := math.Float64bits(s1)&m1 | math.Float64bits(s0)&^m1
				f01 := math.Float64frombits(b01)
				m2 := uint64(int64(math.Float64bits(s2-f01)) >> 63)
				best := math.Float64frombits(math.Float64bits(s2)&m2 | b01&^m2)
				score += wg.w * (best - trioAdj)
			}
			m := int(int64(math.Float64bits(score-bestScore)) >> 63)
			um := uint64(m)
			bb = math.Float64bits(score)&um | bb&^um
			bestScore = math.Float64frombits(bb)
			bestIdx = idx&m | bestIdx&^m
		}
		if bestIdx >= 0 {
			bestEdge = edges[bestIdx]
		}
		if bestEdge[0] < 0 {
			return nil, fmt.Errorf("route: no candidate swap for blocked layer")
		}
		s.out.SWAP(bestEdge[0], bestEdge[1])
		s.l.SwapPhys(bestEdge[0], bestEdge[1])
		s.swaps++
		lastSwap = bestEdge
		stall++
	}
	return s.result(), nil
}
