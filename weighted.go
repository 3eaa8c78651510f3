package mrbc

import (
	"fmt"
	"os"
	"time"

	"mrbc/internal/brandes"
	"mrbc/internal/graph"
	"mrbc/internal/mfbc"
)

// Weighted-graph support. The paper's own algorithms target unweighted
// graphs (MRBC's pipelining schedule is defined over hop counts), but
// two of its baselines support positive edge weights (§5: "note that
// ABBC and MFBC can also handle weighted graphs"); this file exposes
// the weighted engines: Dijkstra-based Brandes, asynchronous weighted
// ABBC, and weighted Maximal-Frontier BC.

// WeightedGraph is a directed graph with positive integer edge weights.
type WeightedGraph = graph.Weighted

// WeightedEdge is an explicit weighted edge for construction.
type WeightedEdge = graph.WeightedEdge

// InfWeightedDist marks an unreachable vertex in weighted distance
// arrays.
const InfWeightedDist = graph.InfWeightedDist

// FromWeightedEdges builds a weighted graph with n vertices. Self
// loops are dropped, parallel edges keep the smallest weight, and zero
// weights are rejected.
func FromWeightedEdges(n int, edges []WeightedEdge) *WeightedGraph {
	return graph.FromWeightedEdges(n, edges)
}

// UnitWeights lifts an unweighted graph to a weighted one with unit
// edge weights; weighted BC on the result equals unweighted BC.
func UnitWeights(g *Graph) *WeightedGraph { return graph.UnitWeights(g) }

// LoadDIMACS reads a weighted graph in the 9th DIMACS Implementation
// Challenge shortest-path format (the format real road networks such
// as the paper's road-europe are distributed in).
func LoadDIMACS(path string) (*WeightedGraph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return graph.ReadDIMACS(f)
}

// BetweennessWeighted computes weighted betweenness centrality
// restricted to the given sources. Supported algorithms: Brandes
// (Dijkstra-based, the default), ABBC (asynchronous), and MFBC
// (Bellman-Ford frontier products).
func BetweennessWeighted(g *WeightedGraph, sources []uint32, opts Options) (*Result, error) {
	if opts.Algorithm == "" {
		opts.Algorithm = Brandes
	}
	n := g.NumVertices()
	for _, s := range sources {
		if int(s) >= n {
			return nil, fmt.Errorf("mrbc: source %d out of range [0,%d)", s, n)
		}
	}
	start := time.Now()
	res := &Result{}
	switch opts.Algorithm {
	case Brandes:
		res.Scores = brandes.WeightedParallel(g, sources, opts.Workers)
	case ABBC:
		res.Scores = brandes.WeightedAsync(g, sources, brandes.AsyncConfig{
			Workers:   opts.Workers,
			ChunkSize: opts.ChunkSize,
		})
	case MFBC:
		res.Scores = mfbc.WeightedBC(g, sources, mfbc.WeightedOptions{Workers: opts.Workers})
	default:
		return nil, fmt.Errorf("mrbc: algorithm %q does not support weighted graphs", opts.Algorithm)
	}
	res.Duration = time.Since(start)
	return res, nil
}

// ApproximateBetweenness estimates exact BC by uniform source sampling
// scaled by n/k (Bader et al., the estimator behind the paper's §5.1
// methodology). It returns the estimates and the number of samples
// used; with Adaptive set, sampling stops once the running maximum
// stabilizes.
func ApproximateBetweenness(g *Graph, opts ApproxOptions) ([]float64, int) {
	return brandes.ApproximateBC(g, brandes.ApproxOptions(opts))
}

// ApproxOptions configures ApproximateBetweenness.
type ApproxOptions struct {
	Samples   int
	Seed      int64
	Workers   int
	Adaptive  bool
	Tolerance float64
}
