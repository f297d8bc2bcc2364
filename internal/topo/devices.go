package topo

import (
	"fmt"
	"strings"
)

// Johannesburg returns the coupling graph of IBM's 20-qubit Johannesburg
// device (Fig. 5a of the paper): four horizontal chains of five qubits with
// vertical couplers at the row ends and in the middle of the two inner rows,
// forming the "four connected rings" the paper describes.
//
// Edge list matches the published IBM coupling map:
// rows 0-4, 5-9, 10-14, 15-19 plus verticals 0-5, 4-9, 5-10, 7-12, 9-14,
// 10-15, 14-19.
func Johannesburg() *Graph {
	g := NewGraph("ibmq-johannesburg", 20)
	for row := 0; row < 4; row++ {
		base := row * 5
		for i := 0; i < 4; i++ {
			g.AddEdge(base+i, base+i+1)
		}
	}
	for _, e := range [][2]int{{0, 5}, {4, 9}, {5, 10}, {7, 12}, {9, 14}, {10, 15}, {14, 19}} {
		g.AddEdge(e[0], e[1])
	}
	return g
}

// Grid returns a full rows x cols 2D mesh (Fig. 5b uses 4 rows x 5 cols).
// Qubit r*cols+c couples to its horizontal and vertical neighbors.
func Grid(rows, cols int) *Graph {
	g := NewGraph(fmt.Sprintf("full-grid-%dx%d", cols, rows), rows*cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			q := r*cols + c
			if c+1 < cols {
				g.AddEdge(q, q+1)
			}
			if r+1 < rows {
				g.AddEdge(q, q+cols)
			}
		}
	}
	return g
}

// Grid5x4 is the paper's 20-qubit 2D mesh.
func Grid5x4() *Graph { return Grid(4, 5) }

// Line returns a 1D chain of n qubits (Fig. 5d uses n = 20).
func Line(n int) *Graph {
	g := NewGraph(fmt.Sprintf("line-%d", n), n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	return g
}

// Line20 is the paper's 20-qubit linear device.
func Line20() *Graph { return Line(20) }

// Clusters returns numClusters fully-connected clusters of clusterSize
// qubits each, arranged in a ring: one coupler joins the last qubit of each
// cluster to the first qubit of the next (Fig. 5c uses 4 clusters of 5,
// representative of a QCCD trapped-ion module).
func Clusters(numClusters, clusterSize int) *Graph {
	n := numClusters * clusterSize
	g := NewGraph(fmt.Sprintf("clusters-%dx%d", clusterSize, numClusters), n)
	for c := 0; c < numClusters; c++ {
		base := c * clusterSize
		for i := 0; i < clusterSize; i++ {
			for j := i + 1; j < clusterSize; j++ {
				g.AddEdge(base+i, base+j)
			}
		}
	}
	// Ring of clusters: last member of cluster c to first member of c+1.
	if numClusters > 1 {
		for c := 0; c < numClusters; c++ {
			next := (c + 1) % numClusters
			if numClusters == 2 && c == 1 {
				break // avoid doubling the single inter-cluster link
			}
			g.AddEdge(c*clusterSize+clusterSize-1, next*clusterSize)
		}
	}
	return g
}

// Clusters5x4 is the paper's 20-qubit clustered device: four fully-connected
// clusters of five qubits in a ring.
func Clusters5x4() *Graph { return Clusters(4, 5) }

// FullyConnected returns the complete graph on n qubits, the trivial-routing
// extreme discussed in §6.1.
func FullyConnected(n int) *Graph {
	g := NewGraph(fmt.Sprintf("full-%d", n), n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.AddEdge(i, j)
		}
	}
	return g
}

// Ring returns a cycle of n qubits. No registry device uses it: it is the
// small topology the route and compiler tests share (a cycle has exactly
// two ways between any pair, which the noise-aware tests rely on).
func Ring(n int) *Graph {
	g := NewGraph(fmt.Sprintf("ring-%d", n), n)
	for i := 0; i < n; i++ {
		g.AddEdge(i, (i+1)%n)
	}
	return g
}

// PaperTopologies returns the four 20-qubit device models evaluated in the
// paper, in the order used by Figures 9-11.
func PaperTopologies() []*Graph {
	return []*Graph{Johannesburg(), Grid5x4(), Line20(), Clusters5x4()}
}

// registry is the single source of truth for name-addressable devices:
// ByName resolves against it and Names lists it, so the lookup and the
// discovery surface (triosd's GET /v1/devices) cannot drift apart.
var registry = []struct {
	name    string
	aliases []string
	build   func() *Graph
}{
	{"johannesburg", []string{"ibmq", "ibmq-johannesburg"}, Johannesburg},
	{"grid", []string{"full-grid-5x4"}, Grid5x4},
	{"line", []string{"line-20"}, Line20},
	{"clusters", []string{"clusters-5x4"}, Clusters5x4},
	{"full", []string{"full-20"}, func() *Graph { return FullyConnected(20) }},
}

// Names returns the registry's canonical request/CLI names in display
// order; every entry resolves through ByName.
func Names() []string {
	names := make([]string, len(registry))
	for i, e := range registry {
		names[i] = e.name
	}
	return names
}

// ByName returns a named 20-qubit topology, for CLI flag parsing.
func ByName(name string) (*Graph, error) {
	for _, e := range registry {
		if name == e.name {
			return e.build(), nil
		}
		for _, a := range e.aliases {
			if name == a {
				return e.build(), nil
			}
		}
	}
	return nil, fmt.Errorf("topo: unknown topology %q (want %s)", name, strings.Join(Names(), ", "))
}
