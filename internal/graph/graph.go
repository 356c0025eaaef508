// Package graph provides the graph substrate for the paper's Section
// VI case study: compressed sparse row (CSR) graphs, a Graph500-style
// Kronecker (R-MAT) generator standing in for kron30, and a heavier-
// tailed variant standing in for the wdc12 web crawl. Graphs here hold
// real topology — the analytics kernels compute real results on them
// while the memory simulator observes the traffic.
package graph

import (
	"fmt"
	"math/rand"
	"slices"

	"twolm/internal/mem"
)

// Graph is a directed graph in CSR form.
type Graph struct {
	// Name identifies the input in reports (e.g. "kron21").
	Name string
	// Offsets has length NumNodes+1; the out-neighbors of node u are
	// Edges[Offsets[u]:Offsets[u+1]].
	Offsets []uint32
	// Edges holds destination node IDs.
	Edges []uint32
}

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return len(g.Offsets) - 1 }

// NumEdges returns the directed edge count.
func (g *Graph) NumEdges() int { return len(g.Edges) }

// OutDegree returns the out-degree of node u.
func (g *Graph) OutDegree(u uint32) int {
	return int(g.Offsets[u+1] - g.Offsets[u])
}

// Neighbors returns the out-neighbor slice of node u (shared backing
// array; callers must not mutate).
func (g *Graph) Neighbors(u uint32) []uint32 {
	return g.Edges[g.Offsets[u]:g.Offsets[u+1]]
}

// Bytes returns the CSR binary size: the "graph binary" the paper
// reports (507 GB for wdc12, 73 GB for kron30).
func (g *Graph) Bytes() uint64 {
	return uint64(len(g.Offsets))*4 + uint64(len(g.Edges))*4
}

// MaxOutDegreeNode returns the node with the largest out-degree — the
// BFS source the paper uses ("the source node was the maximum
// out-degree node").
func (g *Graph) MaxOutDegreeNode() uint32 {
	best, bestDeg := uint32(0), -1
	for u := 0; u < g.NumNodes(); u++ {
		if d := g.OutDegree(uint32(u)); d > bestDeg {
			best, bestDeg = uint32(u), d
		}
	}
	return best
}

// Validate checks CSR integrity.
func (g *Graph) Validate() error {
	if len(g.Offsets) == 0 {
		return fmt.Errorf("graph: empty offsets")
	}
	if g.Offsets[0] != 0 {
		return fmt.Errorf("graph: offsets[0] = %d", g.Offsets[0])
	}
	n := uint32(g.NumNodes())
	for u := 0; u < g.NumNodes(); u++ {
		if g.Offsets[u] > g.Offsets[u+1] {
			return fmt.Errorf("graph: offsets not monotone at node %d", u)
		}
	}
	if int(g.Offsets[n]) != len(g.Edges) {
		return fmt.Errorf("graph: final offset %d != edge count %d", g.Offsets[n], len(g.Edges))
	}
	for i, v := range g.Edges {
		if v >= n {
			return fmt.Errorf("graph: edge %d targets out-of-range node %d", i, v)
		}
	}
	return nil
}

// FromEdges builds a CSR graph from a directed edge list over n nodes.
func FromEdges(name string, n int, src, dst []uint32) (*Graph, error) {
	if len(src) != len(dst) {
		return nil, fmt.Errorf("graph: %d sources vs %d destinations", len(src), len(dst))
	}
	offsets := make([]uint32, n+1)
	for _, u := range src {
		if int(u) >= n {
			return nil, fmt.Errorf("graph: source %d out of range", u)
		}
		offsets[u+1]++
	}
	for i := 1; i <= n; i++ {
		offsets[i] += offsets[i-1]
	}
	edges := make([]uint32, len(src))
	cursor := make([]uint32, n)
	copy(cursor, offsets[:n])
	for i, u := range src {
		if int(dst[i]) >= n {
			return nil, fmt.Errorf("graph: destination %d out of range", dst[i])
		}
		edges[cursor[u]] = dst[i]
		cursor[u]++
	}
	g := &Graph{Name: name, Offsets: offsets, Edges: edges}
	g.sortAdjacency()
	return g, g.Validate()
}

// sortAdjacency sorts each adjacency list for locality, matching the
// converters real frameworks (Galois graph-converter) apply.
func (g *Graph) sortAdjacency() {
	for u := 0; u < g.NumNodes(); u++ {
		slices.Sort(g.Neighbors(uint32(u)))
	}
}

// RMAT parameters of the Graph500 reference generator.
const (
	rmatA = 0.57
	rmatB = 0.19
	rmatC = 0.19
	// rmatD = 0.05 (implied)
)

// Kronecker generates a Graph500-style R-MAT graph with 2^scale nodes
// and edgeFactor*2^scale directed edges. kron30 in the paper is scale
// 30 with edge factor 16; scaled-down reproductions use smaller scales
// with the same skewed degree structure.
func Kronecker(scale, edgeFactor int, seed int64) (*Graph, error) {
	if scale < 1 || scale > 30 {
		return nil, fmt.Errorf("graph: kronecker scale %d out of range", scale)
	}
	if edgeFactor < 1 {
		return nil, fmt.Errorf("graph: edge factor %d out of range", edgeFactor)
	}
	n := 1 << scale
	m := n * edgeFactor
	rng := rand.New(rand.NewSource(seed))
	src := make([]uint32, m)
	dst := make([]uint32, m)
	for i := 0; i < m; i++ {
		u, v := 0, 0
		for bit := 0; bit < scale; bit++ {
			r := rng.Float64()
			switch {
			case r < rmatA:
				// top-left: no bits set
			case r < rmatA+rmatB:
				v |= 1 << bit
			case r < rmatA+rmatB+rmatC:
				u |= 1 << bit
			default:
				u |= 1 << bit
				v |= 1 << bit
			}
		}
		src[i] = uint32(u)
		dst[i] = uint32(v)
	}
	return FromEdges(fmt.Sprintf("kron%d", scale), n, src, dst)
}

// WebLike generates a crawl-shaped graph standing in for wdc12: a
// power-law out-degree distribution with locality-biased destinations
// (web links cluster within sites). 2^scale nodes, ~edgeFactor*2^scale
// edges.
func WebLike(scale, edgeFactor int, seed int64) (*Graph, error) {
	if scale < 1 || scale > 30 {
		return nil, fmt.Errorf("graph: weblike scale %d out of range", scale)
	}
	n := 1 << scale
	m := n * edgeFactor
	rng := rand.New(rand.NewSource(seed))
	// Sources are emitted in ascending order, so the destination list
	// is already the CSR edge array: count degrees as edges are drawn.
	offsets := make([]uint32, n+1)
	edges := make([]uint32, 0, m)
	// Zipf-ish out-degrees: most pages few links, some hubs many.
	zipf := rand.NewZipf(rng, 1.3, 4, uint64(4*edgeFactor))
	for u := 0; u < n && len(edges) < m; u++ {
		deg := int(zipf.Uint64()) + 1
		for e := 0; e < deg && len(edges) < m; e++ {
			var v int
			if rng.Float64() < 0.7 {
				// Site-local link: near the source.
				v = u + rng.Intn(1024) - 512
				if v < 0 {
					v += n
				}
				v %= n
			} else {
				// Cross-site link, biased toward hubs.
				v = rng.Intn(n)
			}
			edges = append(edges, uint32(v))
			offsets[u+1]++
		}
	}
	for i := 1; i <= n; i++ {
		offsets[i] += offsets[i-1]
	}
	g := &Graph{Name: fmt.Sprintf("web%d", scale), Offsets: offsets, Edges: edges}
	g.sortAdjacency()
	return g, g.Validate()
}

// Layout describes where a graph's CSR arrays live in the simulated
// address space.
type Layout struct {
	Offsets mem.Region
	Edges   mem.Region
}

// OffsetAddr returns the simulated address of Offsets[i].
func (l Layout) OffsetAddr(i uint32) uint64 { return l.Offsets.Base + uint64(i)*4 }

// EdgeAddr returns the simulated address of Edges[i].
func (l Layout) EdgeAddr(i uint32) uint64 { return l.Edges.Base + uint64(i)*4 }

// Place allocates the CSR arrays through alloc (which encodes the
// placement policy: flat 2LM, NUMA-preferred, or pinned NVRAM).
func (g *Graph) Place(alloc func(size uint64) (mem.Region, error)) (Layout, error) {
	off, err := alloc(uint64(len(g.Offsets)) * 4)
	if err != nil {
		return Layout{}, fmt.Errorf("graph: placing offsets: %w", err)
	}
	edges, err := alloc(uint64(len(g.Edges)) * 4)
	if err != nil {
		return Layout{}, fmt.Errorf("graph: placing edges: %w", err)
	}
	return Layout{Offsets: off, Edges: edges}, nil
}
