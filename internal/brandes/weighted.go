package brandes

import (
	"fmt"
	"runtime"
	"sort"

	"mrbc/internal/graph"
	"mrbc/internal/worklist"
)

// Weighted Brandes: Algorithm 1 with Dijkstra instead of BFS, as the
// paper's Algorithm 1 listing describes ("run Dijkstra SSSP from s (or
// BFS if G is unweighted)"). Used as the oracle for the weighted MFBC
// and weighted-ABBC engines, which share its back end: each settles a
// source's distances its own way and hands them to WeightedBC.

// WeightedSequential computes weighted BC restricted to sources.
func WeightedSequential(g *graph.Weighted, sources []uint32) []float64 {
	return WeightedBC(g, sources, 1, g.Dijkstra)
}

// WeightedParallel computes weighted BC with source-level parallelism;
// every worker count gives WeightedSequential's bits.
func WeightedParallel(g *graph.Weighted, sources []uint32, workers int) []float64 {
	return WeightedBC(g, sources, workers, g.Dijkstra)
}

// WeightedBC is the settle-then-count back end of every weighted BC in
// the repository. settle(s) returns the final shortest-path distances
// from s (graph.InfWeightedDist when unreachable) in a fresh slice;
// WeightedBC then counts σ in a sweep in distance order (σ(v) sums σ(u)
// over in-edges with dist(u)+w == dist(v)), accumulates δ in the
// reverse sweep, and folds each source into the scores in source
// order. Up to workers goroutines (GOMAXPROCS when workers <= 0) settle
// and sweep whole sources, so every worker count gives the same bits.
func WeightedBC(g *graph.Weighted, sources []uint32, workers int, settle func(s uint32) []uint64) []float64 {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	scores := make([]float64, g.NumVertices())
	worklist.RunOrdered(len(sources), workers, func() (compute, retire func(int)) {
		var s uint32
		var order []uint32
		var delta []float64
		compute = func(i int) {
			s = sources[i]
			validateWeightedSource(g, s)
			order, delta = weightedDependencies(g, s, settle(s))
		}
		retire = func(int) { fold(scores, s, order, delta) }
		return compute, retire
	})
	return scores
}

// weightedDependencies runs the σ and δ sweeps of source s over its
// settled distances, returning the vertices s reaches in non-decreasing
// distance and their dependencies.
func weightedDependencies(g *graph.Weighted, s uint32, dist []uint64) (order []uint32, delta []float64) {
	n := g.NumVertices()
	for v := 0; v < n; v++ {
		if dist[v] != graph.InfWeightedDist {
			order = append(order, uint32(v))
		}
	}
	sort.Slice(order, func(i, j int) bool { return dist[order[i]] < dist[order[j]] })
	sigma := make([]float64, n)
	sigma[s] = 1
	for _, v := range order {
		if v == s {
			continue
		}
		srcs, ws := g.InEdges(v)
		var acc float64
		for i, u := range srcs {
			if du := dist[u]; du != graph.InfWeightedDist && du+uint64(ws[i]) == dist[v] {
				acc += sigma[u]
			}
		}
		sigma[v] = acc
	}
	delta = make([]float64, n)
	for i := len(order) - 1; i >= 0; i-- {
		w := order[i]
		coeff := (1 + delta[w]) / sigma[w]
		srcs, ws := g.InEdges(w)
		for j, v := range srcs {
			if dv := dist[v]; dv != graph.InfWeightedDist && dv+uint64(ws[j]) == dist[w] {
				delta[v] += sigma[v] * coeff
			}
		}
	}
	return order, delta
}

func validateWeightedSource(g *graph.Weighted, s uint32) {
	if int(s) >= g.NumVertices() {
		panic(fmt.Sprintf("brandes: source %d out of range [0,%d)", s, g.NumVertices()))
	}
}
