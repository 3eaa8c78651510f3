// Package gen generates the synthetic input graphs used to reproduce
// the paper's evaluation (Section 5.1, Table 1).
//
// The paper's test suite mixes social networks (livejournal,
// friendster), web-crawls (indochina04, gsh15, clueweb12), a road
// network (road-europe), and synthetic power-law graphs (rmat24,
// kron30). The real datasets are terabyte-scale and unavailable here,
// so each category is replaced by a generator that reproduces the
// property the paper's analysis depends on: degree skew for power-law
// inputs, long-tail distance distributions for web-crawls, and extreme
// diameter with bounded degree for road networks. DESIGN.md Section 3
// records each substitution.
//
// All generators are deterministic for a given seed.
package gen

import (
	"fmt"
	"math/rand"

	"mrbc/internal/graph"
)

// RMAT generates a directed R-MAT graph (Chakrabarti et al.) with 2^scale
// vertices and approximately edgeFactor*2^scale edges, using the usual
// (a,b,c,d) = (0.57, 0.19, 0.19, 0.05) parameters. This stands in for
// the paper's rmat24 and the social networks.
func RMAT(scale int, edgeFactor int, seed int64) *graph.Graph {
	return rmatLike(scale, edgeFactor, seed, 0.57, 0.19, 0.19)
}

// Kronecker generates a directed Kronecker-style graph (Leskovec et
// al.) with 2^scale vertices, standing in for kron30. It uses the
// Graph500 initiator parameters, which produce an even more skewed
// degree distribution than RMAT here.
func Kronecker(scale int, edgeFactor int, seed int64) *graph.Graph {
	return rmatLike(scale, edgeFactor, seed, 0.57, 0.19, 0.19+0.05)
}

// rmatLike drops edgeFactor*2^scale edges through a recursive 2x2
// partition with corner probabilities a, b, c (d = 1-a-b-c).
func rmatLike(scale, edgeFactor int, seed int64, a, b, c float64) *graph.Graph {
	if scale < 0 || scale > 30 {
		panic(fmt.Sprintf("gen: bad scale %d", scale))
	}
	n := 1 << uint(scale)
	rng := rand.New(rand.NewSource(seed))
	bld := graph.NewBuilder(n)
	m := edgeFactor * n
	for i := 0; i < m; i++ {
		u, v := 0, 0
		for bit := 0; bit < scale; bit++ {
			r := rng.Float64()
			switch {
			case r < a:
				// top-left: no bits set
			case r < a+b:
				v |= 1 << uint(bit)
			case r < a+b+c:
				u |= 1 << uint(bit)
			default:
				u |= 1 << uint(bit)
				v |= 1 << uint(bit)
			}
		}
		bld.AddEdge(uint32(u), uint32(v))
	}
	return bld.Build()
}

// RoadGrid generates a road-network-like graph: a rows x cols grid with
// bidirectional street edges and a few random "highway" shortcuts. Its
// diameter is Θ(rows+cols) with bounded degree, matching road-europe's
// regime (estimated diameter 22541 in Table 1).
func RoadGrid(rows, cols int, seed int64) *graph.Graph {
	if rows <= 0 || cols <= 0 {
		panic("gen: grid dimensions must be positive")
	}
	n := rows * cols
	rng := rand.New(rand.NewSource(seed))
	bld := graph.NewBuilder(n)
	id := func(r, c int) uint32 { return uint32(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				bld.AddEdge(id(r, c), id(r, c+1))
				bld.AddEdge(id(r, c+1), id(r, c))
			}
			if r+1 < rows {
				bld.AddEdge(id(r, c), id(r+1, c))
				bld.AddEdge(id(r+1, c), id(r, c))
			}
		}
	}
	// A sparse sprinkle of shortcuts (about 0.5% of n), bidirectional,
	// like motorways: they shave distance without collapsing diameter.
	for i := 0; i < n/200; i++ {
		u := uint32(rng.Intn(n))
		v := uint32(rng.Intn(n))
		bld.AddEdge(u, v)
		bld.AddEdge(v, u)
	}
	return bld.Build()
}

// WebCrawl generates a web-crawl-like graph: an RMAT core of
// 2^coreScale vertices plus pendant directed chains ("long tails") that
// push the estimated diameter far beyond the core's. The paper's key
// observation (§5.3) is that real web-crawls such as gsh15 and
// clueweb12 have non-trivial diameter due to exactly such tails.
//
// tails chains of length tailLen each are attached: the chain's head
// has an edge from a random core vertex and each chain link is
// bidirectional so distances through tails are finite both ways.
func WebCrawl(coreScale, edgeFactor, tails, tailLen int, seed int64) *graph.Graph {
	if tails < 0 || tailLen < 0 {
		panic("gen: negative tail parameters")
	}
	core := RMAT(coreScale, edgeFactor, seed)
	nCore := core.NumVertices()
	n := nCore + tails*tailLen
	rng := rand.New(rand.NewSource(seed + 1))
	bld := graph.NewBuilder(n)
	core.Edges(func(u, v uint32) { bld.AddEdge(u, v) })
	next := uint32(nCore)
	for t := 0; t < tails; t++ {
		anchor := uint32(rng.Intn(nCore))
		prev := anchor
		for l := 0; l < tailLen; l++ {
			bld.AddEdge(prev, next)
			bld.AddEdge(next, prev)
			prev = next
			next++
		}
	}
	return bld.Build()
}

// ErdosRenyi generates a directed G(n, m)-style random graph with
// approximately m edges.
func ErdosRenyi(n int, m int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	bld := graph.NewBuilder(n)
	for i := 0; i < m; i++ {
		bld.AddEdge(uint32(rng.Intn(n)), uint32(rng.Intn(n)))
	}
	return bld.Build()
}

// Cycle generates the directed n-cycle 0->1->...->n-1->0, the
// worst-case diameter strongly connected graph; used by CONGEST bound
// tests.
func Cycle(n int) *graph.Graph {
	bld := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		bld.AddEdge(uint32(i), uint32((i+1)%n))
	}
	return bld.Build()
}

// Path generates the directed path 0->1->...->n-1.
func Path(n int) *graph.Graph {
	bld := graph.NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		bld.AddEdge(uint32(i), uint32(i+1))
	}
	return bld.Build()
}

// Star generates a directed star: 0 -> i for all i, plus back edges
// i -> 0, giving diameter 2 and a single massive hub.
func Star(n int) *graph.Graph {
	bld := graph.NewBuilder(n)
	for i := 1; i < n; i++ {
		bld.AddEdge(0, uint32(i))
		bld.AddEdge(uint32(i), 0)
	}
	return bld.Build()
}

// Complete generates the complete directed graph on n vertices.
func Complete(n int) *graph.Graph {
	bld := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				bld.AddEdge(uint32(i), uint32(j))
			}
		}
	}
	return bld.Build()
}

// LadderDAG generates a DAG with exponentially many shortest paths:
// levels of width 2 where both vertices of level i point to both of
// level i+1. From one end vertex to a far-end vertex there are
// 2^(levels-2) shortest paths, stressing σ accumulation (the paper notes exponential path
// counts need care; we use float64 like the evaluation does).
func LadderDAG(levels int) *graph.Graph {
	if levels < 1 {
		panic("gen: need at least one level")
	}
	n := 2 * levels
	bld := graph.NewBuilder(n)
	for l := 0; l+1 < levels; l++ {
		a, b := uint32(2*l), uint32(2*l+1)
		c, d := uint32(2*l+2), uint32(2*l+3)
		bld.AddEdge(a, c)
		bld.AddEdge(a, d)
		bld.AddEdge(b, c)
		bld.AddEdge(b, d)
	}
	return bld.Build()
}

// SmallWorld generates a Watts–Strogatz-style directed small-world
// graph: a ring lattice where each vertex connects to its k nearest
// clockwise neighbors, with probability p of rewiring each edge to a
// uniform random target. Both directions are added so it stays
// strongly connected at p=0.
func SmallWorld(n, k int, p float64, seed int64) *graph.Graph {
	if k <= 0 || n <= 2*k {
		panic("gen: need n > 2k")
	}
	rng := rand.New(rand.NewSource(seed))
	bld := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		for j := 1; j <= k; j++ {
			tgt := uint32((v + j) % n)
			if rng.Float64() < p {
				tgt = uint32(rng.Intn(n))
			}
			bld.AddEdge(uint32(v), tgt)
			bld.AddEdge(tgt, uint32(v))
		}
	}
	return bld.Build()
}

// ShuffleIDs returns g with its vertex IDs deterministically permuted.
// The generators here number vertices in topology order (grids
// row-major, lattices around the ring), which hands the contiguous
// block partitioners artificially local cuts with boundary-only proxy
// lists. Real datasets carry no such numbering locality; renumbering
// restores the regime the paper's communication analysis assumes,
// where hosts share long proxy lists of which each round touches only
// a few entries.
func ShuffleIDs(g *graph.Graph, seed int64) *graph.Graph {
	n := g.NumVertices()
	perm := rand.New(rand.NewSource(seed)).Perm(n)
	bld := graph.NewBuilder(n)
	g.Edges(func(u, v uint32) {
		bld.AddEdge(uint32(perm[u]), uint32(perm[v]))
	})
	return bld.Build()
}
