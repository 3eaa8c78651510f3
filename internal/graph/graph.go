// Package graph provides the directed-graph substrate used by every
// algorithm in this repository: a compressed sparse row (CSR)
// representation with an optional in-edge (CSC) view, construction
// helpers, traversals, connectivity, diameter estimation, and file I/O.
//
// Graphs are unweighted and directed, matching the setting of the MRBC
// paper (Section 1: "the networks are unweighted, directed graphs").
// Vertices are dense integers [0, N).
package graph

import (
	"fmt"
	"sort"
)

// Graph is an immutable directed graph in CSR form. Build one with a
// Builder or FromEdges; the zero value is an empty graph.
type Graph struct {
	offsets []int64  // len N+1; out-edges of v are dsts[offsets[v]:offsets[v+1]]
	dsts    []uint32 // destination vertex of each out-edge

	// In-edge (CSC) view, built lazily by EnsureInEdges / eagerly by
	// builders. Required by the backward (accumulation) phase of every
	// BC algorithm.
	inOffsets []int64
	inSrcs    []uint32
}

// NumVertices returns the number of vertices N.
func (g *Graph) NumVertices() int {
	if len(g.offsets) == 0 {
		return 0
	}
	return len(g.offsets) - 1
}

// NumEdges returns the number of directed edges m.
func (g *Graph) NumEdges() int64 { return int64(len(g.dsts)) }

// OutNeighbors returns the out-neighbor slice of v. The caller must not
// modify the returned slice.
func (g *Graph) OutNeighbors(v uint32) []uint32 {
	return g.dsts[g.offsets[v]:g.offsets[v+1]]
}

// OutDegree returns the out-degree of v.
func (g *Graph) OutDegree(v uint32) int {
	return int(g.offsets[v+1] - g.offsets[v])
}

// InNeighbors returns the in-neighbor slice of v. EnsureInEdges must
// have been called (builders do this by default).
func (g *Graph) InNeighbors(v uint32) []uint32 {
	if g.inOffsets == nil {
		panic("graph: in-edge view not built; call EnsureInEdges")
	}
	return g.inSrcs[g.inOffsets[v]:g.inOffsets[v+1]]
}

// InDegree returns the in-degree of v.
func (g *Graph) InDegree(v uint32) int {
	if g.inOffsets == nil {
		panic("graph: in-edge view not built; call EnsureInEdges")
	}
	return int(g.inOffsets[v+1] - g.inOffsets[v])
}

// EnsureInEdges builds the in-edge (CSC) view if absent.
func (g *Graph) EnsureInEdges() {
	if g.inOffsets != nil {
		return
	}
	n := g.NumVertices()
	counts := make([]int64, n+1)
	for _, d := range g.dsts {
		counts[d+1]++
	}
	for i := 1; i <= n; i++ {
		counts[i] += counts[i-1]
	}
	srcs := make([]uint32, len(g.dsts))
	cursor := make([]int64, n)
	copy(cursor, counts[:n])
	for u := 0; u < n; u++ {
		for _, v := range g.OutNeighbors(uint32(u)) {
			srcs[cursor[v]] = uint32(u)
			cursor[v]++
		}
	}
	g.inOffsets = counts
	g.inSrcs = srcs
}

// Transpose returns a new graph with every edge reversed. The result
// includes its in-edge view (which is the original's out-edges).
func (g *Graph) Transpose() *Graph {
	g.EnsureInEdges()
	t := &Graph{
		offsets:   append([]int64(nil), g.inOffsets...),
		dsts:      append([]uint32(nil), g.inSrcs...),
		inOffsets: append([]int64(nil), g.offsets...),
		inSrcs:    append([]uint32(nil), g.dsts...),
	}
	return t
}

// MaxOutDegree returns the largest out-degree and a vertex attaining it.
func (g *Graph) MaxOutDegree() (deg int, vertex uint32) {
	for v := 0; v < g.NumVertices(); v++ {
		if d := g.OutDegree(uint32(v)); d > deg {
			deg, vertex = d, uint32(v)
		}
	}
	return deg, vertex
}

// MaxInDegree returns the largest in-degree and a vertex attaining it.
func (g *Graph) MaxInDegree() (deg int, vertex uint32) {
	g.EnsureInEdges()
	for v := 0; v < g.NumVertices(); v++ {
		if d := g.InDegree(uint32(v)); d > deg {
			deg, vertex = d, uint32(v)
		}
	}
	return deg, vertex
}

// Edges calls fn for every directed edge (u, v) in CSR order.
func (g *Graph) Edges(fn func(u, v uint32)) {
	for u := 0; u < g.NumVertices(); u++ {
		for _, v := range g.OutNeighbors(uint32(u)) {
			fn(uint32(u), v)
		}
	}
}

// HasEdge reports whether the directed edge (u, v) exists, using binary
// search over u's (sorted) neighbor list.
func (g *Graph) HasEdge(u, v uint32) bool {
	nb := g.OutNeighbors(u)
	i := sort.Search(len(nb), func(i int) bool { return nb[i] >= v })
	return i < len(nb) && nb[i] == v
}

// Undirected returns UG: the graph with each edge present in both
// directions (deduplicated). Used by CONGEST algorithms, where
// communication channels are bidirectional even for directed inputs
// (Section 2.2), and by weak-connectivity checks.
func (g *Graph) Undirected() *Graph {
	b := NewBuilder(g.NumVertices())
	g.Edges(func(u, v uint32) {
		if u != v {
			b.AddEdge(u, v)
			b.AddEdge(v, u)
		}
	})
	return b.Build()
}

// String summarizes the graph for debugging.
func (g *Graph) String() string {
	return fmt.Sprintf("Graph(n=%d, m=%d)", g.NumVertices(), g.NumEdges())
}

// Builder accumulates edges and produces a Graph. Duplicate edges and
// self-loops are removed at Build time: BC and APSP on unweighted
// graphs are insensitive to parallel edges, and removing them keeps σ
// counts well-defined in the same way the paper's inputs do.
type Builder struct {
	n     int
	edges []edge
}

type edge struct{ u, v uint32 }

// NewBuilder returns a Builder for a graph with n vertices.
func NewBuilder(n int) *Builder {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	return &Builder{n: n}
}

// AddEdge records the directed edge (u, v).
func (b *Builder) AddEdge(u, v uint32) {
	if int(u) >= b.n || int(v) >= b.n {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", u, v, b.n))
	}
	b.edges = append(b.edges, edge{u, v})
}

// Build sorts, deduplicates, drops self-loops, and produces the CSR
// graph with its in-edge view.
func (b *Builder) Build() *Graph {
	sort.Slice(b.edges, func(i, j int) bool {
		if b.edges[i].u != b.edges[j].u {
			return b.edges[i].u < b.edges[j].u
		}
		return b.edges[i].v < b.edges[j].v
	})
	offsets := make([]int64, b.n+1)
	dsts := make([]uint32, 0, len(b.edges))
	var prev edge
	first := true
	for _, e := range b.edges {
		if e.u == e.v {
			continue // self-loop
		}
		if !first && e == prev {
			continue // duplicate
		}
		prev, first = e, false
		dsts = append(dsts, e.v)
		offsets[e.u+1]++
	}
	for i := 1; i <= b.n; i++ {
		offsets[i] += offsets[i-1]
	}
	g := &Graph{offsets: offsets, dsts: dsts}
	g.EnsureInEdges()
	return g
}

// FromEdges builds a graph with n vertices from an explicit edge list.
func FromEdges(n int, edges [][2]uint32) *Graph {
	b := NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	return b.Build()
}
