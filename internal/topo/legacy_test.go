package topo

import "math"

// The per-query BFS and Dijkstra routines the distance oracles replaced,
// frozen verbatim.
// They are the ground truth the oracle equivalence tests compare against on
// every registry device, and the "old" side of the path-machinery
// benchmarks (make bench-route).

// bfsDistancesInto runs the legacy BFS from src, writing hop distances into
// dist (len n, -1 for unreachable).
func bfsDistancesInto(g *Graph, src int, dist []int) {
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		q := queue[0]
		queue = queue[1:]
		for _, nb := range g.adj[q] {
			if dist[nb] < 0 {
				dist[nb] = dist[q] + 1
				queue = append(queue, nb)
			}
		}
	}
}

// DistancesBFS is the legacy allocating per-query BFS behind Distances,
// retained as the reference implementation for equivalence tests and
// old-vs-new benchmarks.
func (g *Graph) DistancesBFS(src int) []int {
	dist := make([]int, g.n)
	bfsDistancesInto(g, src, dist)
	return dist
}

// AllPairsDistancesBFS is the legacy matrix construction (one BFS per row),
// retained for equivalence tests and benchmarks.
func (g *Graph) AllPairsDistancesBFS() [][]int {
	d := make([][]int, g.n)
	for i := 0; i < g.n; i++ {
		d[i] = g.DistancesBFS(i)
	}
	return d
}

// ShortestPathTieBreakBFS is the legacy BFS-per-query path walk the
// oracle-backed ShortestPathAppend replaced, retained for equivalence tests
// and benchmarks. Its
// candidate enumeration order defines the contract the oracle's candidate
// table reproduces.
func (g *Graph) ShortestPathTieBreakBFS(src, dst int, prefer func(cands []int) int) []int {
	if src == dst {
		return []int{src}
	}
	distTo := g.DistancesBFS(dst)
	if distTo[src] < 0 {
		return nil
	}
	path := make([]int, 0, distTo[src]+1)
	path = append(path, src)
	cur := src
	cands := make([]int, 0, 4)
	for cur != dst {
		cands = cands[:0]
		for _, nb := range g.adj[cur] {
			if distTo[nb] == distTo[cur]-1 {
				cands = append(cands, nb)
			}
		}
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
		path = append(path, next)
		cur = next
	}
	return path
}

// WeightedPath is the per-query Dijkstra the WeightedOracle replaced: a
// minimum-weight path from src to dst over per-edge weights weight(a, b), or
// nil if dst is unreachable. It is the reference the oracle's paths are held
// to, and the "old" side of BenchmarkWeightedPathDijkstra.
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
