package route

import (
	"fmt"
	"math"
	"sync"

	"trios/internal/circuit"
	"trios/internal/layout"
	"trios/internal/topo"
)

// The branchy scoring arms the branch-free routers replaced, frozen here as
// test-only routers. TestBranchlessScoringMatchesLegacy holds the production
// routers to them bit for bit, and the kernel-floor benchmarks time them as
// the "old" arm. They keep the seed's memory access patterns: a hash-map
// edge probe for adjacency, [][]int hop rows and [][]float64 weighted rows
// for distances, per-candidate branches, and a layout swap per scored
// candidate in the lookahead.

// legacyStochastic routes like Stochastic with the frozen branchy
// delta-scoring trial.
type legacyStochastic Stochastic

// legacyLookahead routes like Lookahead with the frozen branchy window
// scoring loop (layout swap, per-gate cost closure, compare-and-branch
// select).
type legacyLookahead Lookahead

// legacyTables holds one graph's seed-era adjacency and distance shapes:
// the canonical-key edge map and the lazily built row-slice hop matrix.
type legacyTables struct {
	g        *topo.Graph
	edge     map[[2]int]bool
	rowsOnce sync.Once
	rows     [][]int
}

func legacyEdgeKey(a, b int) [2]int {
	if a > b {
		a, b = b, a
	}
	return [2]int{a, b}
}

// connected is the seed's ConnectedLegacy: a hash-map probe on the
// canonical edge key.
func (lt *legacyTables) connected(a, b int) bool { return lt.edge[legacyEdgeKey(a, b)] }

// dist is the seed's DistLegacy, call for call: the graph's oracle check,
// the row matrix's build-once check, then a row-pointer dereference.
func (lt *legacyTables) dist(a, b int) int {
	lt.g.EnsureOracle()
	return lt.legacyRows()[a][b]
}

// legacyRows materializes the [][]int hop matrix on first use.
func (lt *legacyTables) legacyRows() [][]int {
	lt.rowsOnce.Do(func() {
		n := lt.g.NumQubits()
		lt.rows = make([][]int, n)
		for a := range lt.rows {
			lt.rows[a] = make([]int, n)
			for b := range lt.rows[a] {
				lt.rows[a][b] = lt.g.Dist(a, b)
			}
		}
	})
	return lt.rows
}

// legacyWeighted is a weighted oracle's seed-era [][]float64 shape.
type legacyWeighted struct {
	o        *topo.WeightedOracle
	rowsOnce sync.Once
	rows     [][]float64
}

// dist is the seed's WeightedOracle.DistLegacy: the build-once check, then
// a row-pointer dereference.
func (lw *legacyWeighted) dist(a, b int) float64 {
	lw.rowsOnce.Do(func() {
		n := lw.o.NumQubits()
		lw.rows = make([][]float64, n)
		for src := range lw.rows {
			lw.rows[src] = make([]float64, n)
			for dst := range lw.rows[src] {
				lw.rows[src][dst] = lw.o.Dist(src, dst)
			}
		}
	})
	return lw.rows[a][b]
}

// legacyCache keeps one legacyTables per graph and one legacyWeighted per
// oracle, as the seed kept these shapes on the graph and the oracle, so
// timed runs after the first pay no build cost.
var legacyCache = struct {
	sync.Mutex
	tables   map[*topo.Graph]*legacyTables
	weighted map[*topo.WeightedOracle]*legacyWeighted
}{
	tables:   map[*topo.Graph]*legacyTables{},
	weighted: map[*topo.WeightedOracle]*legacyWeighted{},
}

func legacyTablesFor(g *topo.Graph) *legacyTables {
	legacyCache.Lock()
	defer legacyCache.Unlock()
	lt := legacyCache.tables[g]
	if lt == nil {
		lt = &legacyTables{g: g, edge: make(map[[2]int]bool)}
		for _, e := range g.Edges() {
			lt.edge[e] = true
		}
		legacyCache.tables[g] = lt
	}
	return lt
}

func legacyWeightedFor(o *topo.WeightedOracle) *legacyWeighted {
	legacyCache.Lock()
	defer legacyCache.Unlock()
	lw := legacyCache.weighted[o]
	if lw == nil {
		lw = &legacyWeighted{o: o}
		legacyCache.weighted[o] = lw
	}
	return lw
}

// legacyTrial is one legacy stochastic Route's trial state: the graph's
// tables and the candidate and improving buffers every trial reuses.
type legacyTrial struct {
	tables    *legacyTables
	cands     [][2]int
	improving [][2]int
}

// Route implements Router.
func (s *legacyStochastic) Route(c *circuit.Circuit, g *topo.Graph, initial *layout.Layout) (*Result, error) {
	trials := s.Trials
	if trials <= 0 {
		trials = 4
	}
	st, err := newState(g, initial, s.Seed, s.Weight, s.Oracle)
	if err != nil {
		return nil, err
	}
	lr := &legacyTrial{tables: legacyTablesFor(g)}
	dag := circuit.BuildDAG(c)
	n := len(c.Gates)
	done := make([]bool, n)
	remainingPreds := make([]int, n)
	for i := range dag.Preds {
		remainingPreds[i] = len(dag.Preds[i])
	}
	completed := 0

	markDone := func(i int) {
		done[i] = true
		completed++
		for _, succ := range dag.Succs[i] {
			remainingPreds[succ]--
		}
	}

	for completed < n {
		// Execute everything executable in the current front.
		progress := true
		for progress {
			progress = false
			for i := 0; i < n; i++ {
				if done[i] || remainingPreds[i] > 0 {
					continue
				}
				gate := c.Gates[i]
				switch {
				case gate.Name == circuit.Barrier || len(gate.Qubits) == 1:
					st.emitMapped(gate)
					markDone(i)
					progress = true
				case len(gate.Qubits) == 2:
					pa, pb := st.l.Phys(gate.Qubits[0]), st.l.Phys(gate.Qubits[1])
					if g.Connected(pa, pb) {
						st.emitMapped(gate)
						markDone(i)
						progress = true
					}
				case trioGate(gate.Name) && s.TrioAware:
					// Trios grafts deterministic trio routing into the
					// stochastic pass: route the trio directly, then emit.
					target := -1
					if gate.Name != circuit.CCX {
						target = gate.Qubits[2]
					}
					if err := st.routeTrioRole(gate.Qubits[0], gate.Qubits[1], gate.Qubits[2], target); err != nil {
						return nil, fmt.Errorf("route: gate %d: %w", i, err)
					}
					st.emitMapped(gate)
					markDone(i)
					progress = true
				case trioGate(gate.Name):
					return nil, fmt.Errorf("route: stochastic router needs TrioAware for %v (gate %d); decompose first", gate.Name, i)
				default:
					return nil, fmt.Errorf("route: stochastic router cannot handle gate %v (gate %d)", gate.Name, i)
				}
			}
		}
		if completed == n {
			break
		}

		// The front is blocked: collect its pending two-qubit pairs.
		var pending [][2]int // virtual qubit pairs
		for i := 0; i < n; i++ {
			if done[i] || remainingPreds[i] > 0 {
				continue
			}
			gate := c.Gates[i]
			if len(gate.Qubits) == 2 {
				pending = append(pending, [2]int{gate.Qubits[0], gate.Qubits[1]})
			}
		}
		if len(pending) == 0 {
			return nil, fmt.Errorf("route: blocked with no pending two-qubit gates")
		}
		seq := s.searchSwaps(st, g, lr, pending, trials)
		if seq == nil {
			return nil, fmt.Errorf("route: stochastic search failed for layer with %d pending pairs", len(pending))
		}
		for _, e := range seq {
			st.out.SWAP(e[0], e[1])
			st.l.SwapPhys(e[0], e[1])
			st.swaps++
		}
	}
	return st.result(), nil
}

// searchSwaps is Stochastic.searchSwaps over the legacy trial.
func (s *legacyStochastic) searchSwaps(st *state, g *topo.Graph, lr *legacyTrial, pending [][2]int, trials int) [][2]int {
	var best [][2]int
	limit := maxSeqLen(g, len(pending))
	sc := st.stochScratch()
	for trial := 0; trial < trials; trial++ {
		seq := s.oneTrial(st, g, lr, pending, limit)
		if seq != nil && (best == nil || len(seq) < len(best)) {
			// The trial's sequence lives in scratch the next trial reuses,
			// so keep the winner in its own reused buffer.
			sc.bestBuf = append(sc.bestBuf[:0], seq...)
			best = sc.bestBuf
		}
	}
	return best
}

// oneTrial simulates random swaps on a scratch layout until some pending
// pair becomes adjacent. Swaps are drawn from edges touching pending qubits;
// with high probability a distance-reducing edge is chosen, otherwise any
// such edge — the randomness that makes the era-appropriate baseline wander.
//
// A candidate swap (a, b) is scored by an O(pairs-touching-a,b) delta
// against the device's distance oracle instead of re-running a BFS sweep
// over every pending pair: only pairs with an endpoint on a or b change
// distance, and the swap improves the layer exactly when the summed delta of
// those pairs is negative. Distances are exact integers, so the delta test
// selects the same improving set as the legacy recompute-everything scan.
// In noise-aware mode the same delta runs against the weighted-path tables,
// so "improving" means lowering the layer's summed -log success.
func (s *legacyStochastic) oneTrial(st *state, g *topo.Graph, lr *legacyTrial, pending [][2]int, limit int) [][2]int {
	sc := st.stochScratch()
	l := sc.trialL
	l.CopyFrom(st.l)
	rng := st.rng
	var seq [][2]int
	var worc *legacyWeighted
	if st.weight != nil {
		worc = legacyWeightedFor(st.weightedOracle())
	}

	edges := g.EdgeList()
	involved := st.involved
	for len(seq) < limit {
		adjacent := false
		for _, p := range pending {
			if lr.tables.connected(l.Phys(p[0]), l.Phys(p[1])) {
				adjacent = true
				break
			}
		}
		if adjacent {
			if len(seq) == 0 {
				return nil
			}
			return seq
		}
		// Index the pending pairs by the physical qubits holding them, so a
		// candidate edge scores against only the pairs it moves.
		for _, q := range sc.touched {
			sc.pairsAt[q] = sc.pairsAt[q][:0]
			involved[q] = false
		}
		sc.touched = sc.touched[:0]
		sc.pairA = sc.pairA[:0]
		sc.pairB = sc.pairB[:0]
		for i, p := range pending {
			a, b := l.Phys(p[0]), l.Phys(p[1])
			sc.pairA = append(sc.pairA, a)
			sc.pairB = append(sc.pairB, b)
			for _, q := range [2]int{a, b} {
				if !involved[q] {
					involved[q] = true
					sc.touched = append(sc.touched, q)
				}
				sc.pairsAt[q] = append(sc.pairsAt[q], int32(i))
			}
		}
		cands, improving := lr.cands[:0], lr.improving[:0]
		for _, e := range edges {
			if !involved[e[0]] && !involved[e[1]] {
				continue
			}
			cands = append(cands, e)
			// Delta over the pairs touching e's endpoints. A pair touching
			// both endpoints sits exactly on e — but then it is already
			// adjacent and the trial returned above, so no pair is visited
			// twice here (and even if one were, its delta is 0 by symmetry).
			if worc != nil {
				delta := 0.0
				for _, end := range e {
					for _, i := range sc.pairsAt[end] {
						a, b := sc.pairA[i], sc.pairB[i]
						na, nb := swapEnd(a, e), swapEnd(b, e)
						delta += worc.dist(na, nb) - worc.dist(a, b)
					}
				}
				if delta < 0 {
					improving = append(improving, e)
				}
				continue
			}
			delta := 0
			for _, end := range e {
				for _, i := range sc.pairsAt[end] {
					a, b := sc.pairA[i], sc.pairB[i]
					na, nb := swapEnd(a, e), swapEnd(b, e)
					delta += lr.tables.dist(na, nb) - lr.tables.dist(a, b)
				}
			}
			if delta < 0 {
				improving = append(improving, e)
			}
		}
		lr.cands, lr.improving = cands[:0], improving[:0]
		pool := improving
		// Random exploration keeps the search from deadlocking on plateaus
		// and reproduces the baseline's wander.
		if len(pool) == 0 || rng.Float64() < 0.3 {
			pool = cands
		}
		if len(pool) == 0 {
			return nil
		}
		e := pool[rng.Intn(len(pool))]
		l.SwapPhys(e[0], e[1])
		seq = append(seq, e)
	}
	return nil
}

// swapEnd maps a physical position through the swap of edge e's endpoints.
func swapEnd(q int, e [2]int) int {
	switch q {
	case e[0]:
		return e[1]
	case e[1]:
		return e[0]
	}
	return q
}

// Route implements Router.
func (lk *legacyLookahead) Route(c *circuit.Circuit, g *topo.Graph, initial *layout.Layout) (*Result, error) {
	lt := legacyTablesFor(g)
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
	var worc *topo.WeightedOracle
	if lk.Weight != nil {
		worc = s.weightedOracle()
	}
	edges := g.EdgeList()

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

	// gateCost is the routing distance a pending gate still has to cover:
	// hops-to-adjacent for pairs, meeting-point distance for trios, on the
	// weighted tables in noise-aware mode. It reads the seed's access paths:
	// [][]int hop rows and [][]float64 weighted rows.
	ldist := lt.legacyRows()
	var lw *legacyWeighted
	if worc != nil {
		lw = legacyWeightedFor(worc)
	}
	gateCost := func(gate circuit.Gate) float64 {
		switch len(gate.Qubits) {
		case 2:
			if worc != nil {
				return lw.dist(s.l.Phys(gate.Qubits[0]), s.l.Phys(gate.Qubits[1]))
			}
			return float64(ldist[s.l.Phys(gate.Qubits[0])][s.l.Phys(gate.Qubits[1])] - 1)
		case 3:
			ps := [3]int{s.l.Phys(gate.Qubits[0]), s.l.Phys(gate.Qubits[1]), s.l.Phys(gate.Qubits[2])}
			if worc != nil {
				best := math.Inf(1)
				for i := 0; i < 3; i++ {
					sum := 0.0
					for j := 0; j < 3; j++ {
						sum += lw.dist(ps[i], ps[j])
					}
					if sum < best {
						best = sum
					}
				}
				return best
			}
			best := int(^uint(0) >> 1)
			for i := 0; i < 3; i++ {
				sum := 0
				for j := 0; j < 3; j++ {
					sum += ldist[ps[i]][ps[j]]
				}
				if sum < best {
					best = sum
				}
			}
			return float64(best - 2)
		}
		return 0
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
		for _, e := range edges {
			if !involved[e[0]] && !involved[e[1]] {
				continue
			}
			if e == lastSwap {
				continue // anti-oscillation
			}
			s.l.SwapPhys(e[0], e[1])
			score := 0.0
			for _, gate := range front {
				score += gateCost(gate)
			}
			for _, gate := range extended {
				score += extWeight * gateCost(gate)
			}
			s.l.SwapPhys(e[0], e[1])
			if score < bestScore {
				bestEdge, bestScore = e, score
			}
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
