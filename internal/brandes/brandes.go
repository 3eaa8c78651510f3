// Package brandes implements Brandes' betweenness centrality algorithm
// (Algorithms 1 and 2 of the paper) in three flavors:
//
//   - Sequential: the textbook algorithm, used as the correctness
//     oracle for every other BC implementation in this repository.
//   - Parallel: shared-memory source-parallel Brandes on
//     worklist.RunOrdered, with Sequential's bits at any worker count.
//   - Async (ABBC): the asynchronous shared-memory baseline of
//     Prountzos & Pingali evaluated by the paper, built on a chunked
//     worklist with no level barriers in the forward phase.
//
// Their weighted modes (Dijkstra, and ABBC's label-correcting forward)
// share one σ/δ back end, WeightedBC, with weighted MFBC.
//
// All functions compute the k-source approximation of BC (Bader et
// al.), summing the betweenness score over the given sources only, as
// the paper's evaluation does (§5.1). Passing every vertex as a source
// yields exact BC.
package brandes

import (
	"fmt"
	"runtime"

	"mrbc/internal/graph"
	"mrbc/internal/worklist"
)

// SourceData holds the per-source state of Brandes' algorithm: BFS
// distances, shortest-path counts σ, and dependencies δ, plus the
// vertices in non-increasing distance order (the paper's stack S).
type SourceData struct {
	Source uint32
	Dist   []uint32  // graph.InfDist when unreachable
	Sigma  []float64 // number of shortest paths from Source
	Delta  []float64 // dependency of Source on each vertex
	Order  []uint32  // reachable vertices in non-decreasing distance
}

// SingleSource runs the forward phase of Brandes' algorithm (BFS with
// path counting) from s. Shortest-path counts use float64, matching
// the paper's double-precision configuration (§5.2), since counts can
// overflow integers on graphs with exponentially many shortest paths.
func SingleSource(g *graph.Graph, s uint32) *SourceData {
	n := g.NumVertices()
	d := &SourceData{
		Source: s,
		Dist:   make([]uint32, n),
		Sigma:  make([]float64, n),
		Delta:  make([]float64, n),
	}
	for i := range d.Dist {
		d.Dist[i] = graph.InfDist
	}
	d.Dist[s] = 0
	d.Sigma[s] = 1
	queue := make([]uint32, 0, 64)
	queue = append(queue, s)
	d.Order = append(d.Order, s)
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		du := d.Dist[u]
		for _, v := range g.OutNeighbors(u) {
			if d.Dist[v] == graph.InfDist {
				d.Dist[v] = du + 1
				queue = append(queue, v)
				d.Order = append(d.Order, v)
			}
			if d.Dist[v] == du+1 {
				d.Sigma[v] += d.Sigma[u]
			}
		}
	}
	return d
}

// dependencies accumulates δ from the BFS frontier inward. g's in-edge
// view must exist.
func (d *SourceData) dependencies(g *graph.Graph) {
	for i := len(d.Order) - 1; i >= 0; i-- {
		w := d.Order[i]
		coeff := (1 + d.Delta[w]) / d.Sigma[w]
		for _, v := range g.InNeighbors(w) {
			if d.Dist[v] != graph.InfDist && d.Dist[v]+1 == d.Dist[w] {
				d.Delta[v] += d.Sigma[v] * coeff
			}
		}
	}
}

// fold adds one source's dependencies into scores: BC(w) += δs•(w) for
// every vertex w ≠ s in order, the vertices s reaches.
func fold(scores []float64, s uint32, order []uint32, delta []float64) {
	for _, w := range order {
		if w != s {
			scores[w] += delta[w]
		}
	}
}

// Sequential computes BC scores restricted to the given sources.
func Sequential(g *graph.Graph, sources []uint32) []float64 {
	return Parallel(g, sources, 1)
}

// Parallel computes BC scores restricted to the given sources with
// source-level parallelism, the standard shared-memory parallelization
// of Brandes (Bader & Madduri style) and the single-host configuration
// in Table 2: up to workers goroutines (GOMAXPROCS when workers <= 0)
// each compute whole sources. The sources fold into the scores in
// source order, so every worker count gives Sequential's bits.
func Parallel(g *graph.Graph, sources []uint32, workers int) []float64 {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	scores := make([]float64, g.NumVertices())
	foldSources(g, sources, workers, scores)
	return scores
}

// foldSources computes the dependencies of every source on up to
// workers goroutines and folds them into scores in source order.
func foldSources(g *graph.Graph, sources []uint32, workers int, scores []float64) {
	g.EnsureInEdges() // build once, before workers share the graph
	worklist.RunOrdered(len(sources), workers, func() (compute, retire func(int)) {
		var d *SourceData
		compute = func(i int) {
			validateSource(g, sources[i])
			d = SingleSource(g, sources[i])
			d.dependencies(g)
		}
		retire = func(int) { fold(scores, d.Source, d.Order, d.Delta) }
		return compute, retire
	})
}

// SequentialAll computes exact BC using every vertex as a source.
func SequentialAll(g *graph.Graph) []float64 {
	sources := make([]uint32, g.NumVertices())
	for i := range sources {
		sources[i] = uint32(i)
	}
	return Sequential(g, sources)
}

func validateSource(g *graph.Graph, s uint32) {
	if int(s) >= g.NumVertices() {
		panic(fmt.Sprintf("brandes: source %d out of range [0,%d)", s, g.NumVertices()))
	}
}

// FirstKSources returns the sources [start, start+k), the "random
// contiguous chunk" sampling the paper uses for comparability with
// MFBC (§5.1).
func FirstKSources(g *graph.Graph, start, k int) []uint32 {
	n := g.NumVertices()
	if start < 0 || k < 0 || start+k > n {
		panic(fmt.Sprintf("brandes: source range [%d,%d) out of [0,%d)", start, start+k, n))
	}
	out := make([]uint32, k)
	for i := range out {
		out[i] = uint32(start + i)
	}
	return out
}

// SourceRange returns the sources [start, start+count) clamped to the
// n vertices; count <= 0 takes every vertex from start on, so start 0
// gives exact BC. A start outside [0, n) is an error, never a wrapped
// vertex ID. The bc and bcctl commands select their -source-start and
// -sources with it.
func SourceRange(n, start, count int) ([]uint32, error) {
	if start < 0 || start >= n {
		return nil, fmt.Errorf("no sources in [%d, %d)", start, n)
	}
	if count <= 0 || count > n-start {
		count = n - start
	}
	sources := make([]uint32, count)
	for i := range sources {
		sources[i] = uint32(start + i)
	}
	return sources, nil
}
