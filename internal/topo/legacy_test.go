package topo

// The per-query BFS routines the distance oracle replaced, frozen verbatim.
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

// ShortestPathTieBreakBFS is the legacy BFS-per-query path walk behind
// ShortestPathTieBreak, retained for equivalence tests and benchmarks. Its
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
