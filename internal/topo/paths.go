package topo

import "math"

// Distances returns the hop distances from src to every qubit (-1 when
// unreachable) as a row of the precomputed distance oracle's flat int32
// slab. The returned slice is shared; callers must not modify it. (The
// allocating per-query BFS it replaced is frozen in legacy_test.go, for the
// equivalence tests and benchmarks.)
func (g *Graph) Distances(src int) []int32 {
	o := g.ensureOracle()
	return o.dist[src*g.n : (src+1)*g.n]
}

// ShortestPath returns one shortest path from src to dst (inclusive of both),
// breaking ties deterministically by lowest qubit index. Returns nil if dst
// is unreachable.
func (g *Graph) ShortestPath(src, dst int) []int {
	return g.ShortestPathTieBreak(src, dst, nil)
}

// ShortestPathTieBreak returns one shortest path from src to dst. When
// several next hops give the same distance, prefer is consulted to choose
// among candidate next hops (it receives the candidate list and returns the
// chosen index); a nil prefer picks the lowest qubit index. This hook lets
// the stochastic router sample uniformly among shortest paths with a seeded
// RNG while keeping the default deterministic.
//
// The walk reads the distance oracle's candidate table, which stores next
// hops in the exact adjacency order the legacy BFS enumerated them — prefer
// sees identical candidate slices (shared; it must not modify them) and is
// invoked the same number of times, so seeded tie-break streams are
// bit-identical to the BFS implementation's.
func (g *Graph) ShortestPathTieBreak(src, dst int, prefer func(cands []int32) int) []int {
	o := g.ensureOracle()
	if src == dst {
		return []int{src}
	}
	d := o.dist[src*g.n+dst]
	if d < 0 {
		return nil
	}
	path := make([]int, 0, d+1)
	path, _ = g.appendShortestPath(path, src, dst, prefer)
	return path
}

// ShortestPathAppend appends one shortest path from src to dst (inclusive)
// onto buf, applying the same tie-break contract as ShortestPathTieBreak.
// ok is false (and buf is returned unchanged) when dst is unreachable. It is
// the allocation-free form the routers' scratch buffers use.
func (g *Graph) ShortestPathAppend(buf []int, src, dst int, prefer func(cands []int32) int) (path []int, ok bool) {
	if src == dst {
		return append(buf, src), true
	}
	if g.ensureOracle().dist[src*g.n+dst] < 0 {
		return buf, false
	}
	return g.appendShortestPath(buf, src, dst, prefer)
}

// appendShortestPath walks the candidate table from src to dst. The caller
// has already ruled out src == dst and unreachability.
func (g *Graph) appendShortestPath(buf []int, src, dst int, prefer func(cands []int32) int) ([]int, bool) {
	o := g.orc
	buf = append(buf, src)
	cur := src
	for cur != dst {
		cands := o.candidates(g.n, cur, dst)
		next := cands[0]
		if prefer != nil && len(cands) > 1 {
			next = cands[prefer(cands)]
		} else {
			for _, c := range cands[1:] {
				if c < next {
					next = c
				}
			}
		}
		buf = append(buf, int(next))
		cur = int(next)
	}
	return buf, true
}

// WeightedPath computes a minimum-weight path from src to dst using Dijkstra
// over per-edge weights supplied by weight(a, b). It backs the noise-aware
// routing mode, where an edge's weight is -log of its CNOT success rate so
// that the path weight is -log of the path's success probability.
// Returns nil if dst is unreachable.
//
// This is the per-query form; routers that issue many queries against one
// weight function should build a WeightedOracle instead, which produces
// bit-identical paths from precomputed tables.
func (g *Graph) WeightedPath(src, dst int, weight func(a, b int) float64) []int {
	dist := make([]float64, g.n)
	prev := make([]int, g.n)
	done := make([]bool, g.n)
	for i := range dist {
		dist[i] = math.Inf(1)
		prev[i] = -1
	}
	dist[src] = 0
	pq := pairHeap{{q: src, d: 0}}
	for pq.Len() > 0 {
		it := pq.pop()
		if done[it.q] {
			continue
		}
		done[it.q] = true
		if it.q == dst {
			break
		}
		for _, nb := range g.adj[it.q] {
			w := weight(it.q, nb)
			if w < 0 {
				w = 0
			}
			if nd := dist[it.q] + w; nd < dist[nb] {
				dist[nb] = nd
				prev[nb] = it.q
				pq.push(pair{q: nb, d: nd})
			}
		}
	}
	if math.IsInf(dist[dst], 1) {
		return nil
	}
	// Reconstruct.
	var rev []int
	for q := dst; q != -1; q = prev[q] {
		rev = append(rev, q)
	}
	path := make([]int, len(rev))
	for i, q := range rev {
		path[len(rev)-1-i] = q
	}
	return path
}

type pair struct {
	q int
	d float64
}

// pairHeap is a hand-rolled binary min-heap on d, replacing the former
// container/heap implementation whose interface{} Push/Pop boxed every
// element. The sift rules mirror container/heap exactly (strict-less
// comparisons, identical swap order), so pop order — and therefore Dijkstra
// tie-breaking — is unchanged.
type pairHeap []pair

func (h pairHeap) Len() int { return len(h) }

func (h *pairHeap) push(it pair) {
	*h = append(*h, it)
	s := *h
	j := len(s) - 1
	for j > 0 {
		i := (j - 1) / 2
		if !(s[j].d < s[i].d) {
			break
		}
		s[i], s[j] = s[j], s[i]
		j = i
	}
}

func (h *pairHeap) pop() pair {
	s := *h
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	// Sift down over s[:n].
	i := 0
	for {
		j1 := 2*i + 1
		if j1 >= n {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && s[j2].d < s[j1].d {
			j = j2
		}
		if !(s[j].d < s[i].d) {
			break
		}
		s[i], s[j] = s[j], s[i]
		i = j
	}
	it := s[n]
	*h = s[:n]
	return it
}
