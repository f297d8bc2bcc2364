// Package topo models device coupling graphs: which pairs of physical qubits
// can execute a two-qubit gate. It provides the four 20-qubit topologies the
// paper evaluates (IBM Johannesburg, 2D grid, line, clusters) plus small
// synthetic graphs for tests, along with shortest-path machinery used by the
// mapping and routing passes.
package topo

import (
	"fmt"
	"sync"
)

// Graph is an undirected coupling graph over qubits 0..N-1.
//
// The first distance or path query lazily builds the graph's distance oracle
// (see oracle.go) and freezes the topology: AddEdge panics afterwards.
// Construction is single-threaded; once built, a Graph and its oracle are
// safe for concurrent read-only use by any number of goroutines.
type Graph struct {
	name string
	n    int
	adj  [][]int
	// conn is the flat n*n adjacency matrix (index a*n+b): Connected is on
	// the routers' per-candidate hot path, where it is one bounds-checked
	// byte load.
	conn     []bool
	numEdges int

	// Distance oracle, built once on first query (or via EnsureOracle).
	once   sync.Once
	orc    *oracle
	frozen bool
}

// NewGraph returns an empty coupling graph on n qubits.
func NewGraph(name string, n int) *Graph {
	if n < 0 {
		panic("topo: negative qubit count")
	}
	return &Graph{
		name: name,
		n:    n,
		adj:  make([][]int, n),
		conn: make([]bool, n*n),
	}
}

// AddEdge inserts an undirected coupling between qubits a and b.
// Adding an existing edge is a no-op.
func (g *Graph) AddEdge(a, b int) {
	g.freezeCheck()
	if a == b {
		panic(fmt.Sprintf("topo: self edge %d", a))
	}
	if a < 0 || a >= g.n || b < 0 || b >= g.n {
		panic(fmt.Sprintf("topo: edge (%d,%d) outside [0,%d)", a, b, g.n))
	}
	if g.conn[a*g.n+b] {
		return
	}
	g.numEdges++
	g.conn[a*g.n+b] = true
	g.conn[b*g.n+a] = true
	g.adj[a] = append(g.adj[a], b)
	g.adj[b] = append(g.adj[b], a)
}

// Name returns the topology's human-readable name.
func (g *Graph) Name() string { return g.name }

// NumQubits returns the number of physical qubits.
func (g *Graph) NumQubits() int { return g.n }

// NumEdges returns the number of couplings.
func (g *Graph) NumEdges() int { return g.numEdges }

// Connected reports whether qubits a and b share a coupling. Out-of-range
// arguments report false.
func (g *Graph) Connected(a, b int) bool {
	if uint(a) >= uint(g.n) || uint(b) >= uint(g.n) {
		return false
	}
	return g.conn[a*g.n+b]
}

// Neighbors returns the qubits adjacent to q. The returned slice is shared;
// callers must not modify it.
func (g *Graph) Neighbors(q int) []int { return g.adj[q] }

// Degree returns the number of couplings incident to q.
func (g *Graph) Degree(q int) int { return len(g.adj[q]) }

// Edges returns all couplings as sorted (low, high) pairs: a row-major scan
// of the adjacency matrix's upper triangle.
func (g *Graph) Edges() [][2]int {
	edges := make([][2]int, 0, g.numEdges)
	for a := 0; a < g.n; a++ {
		for b := a + 1; b < g.n; b++ {
			if g.conn[a*g.n+b] {
				edges = append(edges, [2]int{a, b})
			}
		}
	}
	return edges
}

// Triangle reports whether qubits a, b, c are pairwise connected.
func (g *Graph) Triangle(a, b, c int) bool {
	return g.Connected(a, b) && g.Connected(b, c) && g.Connected(a, c)
}

// LinearTrio reports whether the trio (a, b, c) forms a connected path with
// some ordering, and returns the middle qubit of that path. If the trio is a
// triangle any qubit can be the middle; b is returned.
func (g *Graph) LinearTrio(a, b, c int) (middle int, ok bool) {
	ab, bc, ac := g.Connected(a, b), g.Connected(b, c), g.Connected(a, c)
	switch {
	case ab && bc:
		return b, true
	case ab && ac:
		return a, true
	case bc && ac:
		return c, true
	}
	return -1, false
}

// IsConnectedGraph reports whether every qubit is reachable from qubit 0.
func (g *Graph) IsConnectedGraph() bool {
	if g.n == 0 {
		return true
	}
	seen := make([]bool, g.n)
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		q := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, nb := range g.adj[q] {
			if !seen[nb] {
				seen[nb] = true
				count++
				stack = append(stack, nb)
			}
		}
	}
	return count == g.n
}

// String describes the graph briefly.
func (g *Graph) String() string {
	return fmt.Sprintf("%s(%d qubits, %d edges)", g.name, g.n, g.numEdges)
}
