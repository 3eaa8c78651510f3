package mfbc

import (
	"fmt"

	"mrbc/internal/brandes"
	"mrbc/internal/graph"
)

// Weighted MFBC. The original system's selling point is weighted
// support via Bellman-Ford frontier products (§5: "note that ABBC and
// MFBC can also handle weighted graphs"). The weighted forward sweep
// iterates masked (min, +) frontier products until distances reach a
// fixpoint; unlike the unweighted case, a vertex's distance can
// improve after it has already propagated, so path counts cannot be
// pushed alongside distances without delta corrections. Following the
// settle-then-count structure, σ and the dependencies are computed by
// distance-ordered sweeps once distances are final — the same masked
// products, ordered by the now-known distances.

// WeightedOptions configures a weighted MFBC run.
type WeightedOptions struct {
	Workers int // source-parallelism; default GOMAXPROCS
}

// WeightedBC computes weighted betweenness centrality restricted to
// sources: the Bellman-Ford frontier loop settles each source's
// distances, and brandes.WeightedBC sweeps σ and δ and folds the
// sources in source order.
func WeightedBC(g *graph.Weighted, sources []uint32, opts WeightedOptions) []float64 {
	n := g.NumVertices()
	for _, s := range sources {
		if int(s) >= n {
			panic(fmt.Sprintf("mfbc: source %d out of range [0,%d)", s, n))
		}
	}
	return brandes.WeightedBC(g, sources, opts.Workers, func(s uint32) []uint64 { return bellmanFord(g, s) })
}

// bellmanFord settles the distances from s with a frontier (the masked
// min-plus product). A vertex re-enters the frontier whenever its
// distance improves.
func bellmanFord(g *graph.Weighted, s uint32) []uint64 {
	n := g.NumVertices()
	dist := make([]uint64, n)
	for i := range dist {
		dist[i] = graph.InfWeightedDist
	}
	dist[s] = 0
	frontier := []uint32{s}
	inFrontier := make([]bool, n)
	inFrontier[s] = true
	for len(frontier) > 0 {
		next := frontier[:0:0]
		for _, u := range frontier {
			inFrontier[u] = false
		}
		for _, u := range frontier {
			du := dist[u]
			dsts, ws := g.OutEdges(u)
			for i, v := range dsts {
				if nd := du + uint64(ws[i]); nd < dist[v] {
					dist[v] = nd
					if !inFrontier[v] {
						inFrontier[v] = true
						next = append(next, v)
					}
				}
			}
		}
		frontier = next
	}
	return dist
}
