// Package mfbc implements Maximal-Frontier Betweenness Centrality
// (Solomonik, Besta, Vella, Hoefler — SC'17), the sparse-matrix
// baseline of the paper's evaluation. BC is phrased as frontier
// products over two semirings:
//
//   - Forward: a Bellman-Ford-style sweep over the (min, +) semiring on
//     (distance, path-count) pairs. Each iteration multiplies the
//     adjacency matrix by the current frontier; entries whose tentative
//     distance improves (or whose count grows at an equal distance) form
//     the next frontier. On unweighted graphs the sweep settles one BFS
//     level per iteration.
//   - Backward: dependency accumulation over a (+, ·) algebra on the
//     transpose (the graph's in-edge view), masked by distance so
//     contributions flow from the deepest frontier inward.
//
// Sources are processed in batches of k, like MRBC and the original
// MFBC ("MFBC performs best when k is the highest power-of-2 for which
// the graph fits in memory", §5.2).
package mfbc

import (
	"fmt"
	"runtime"

	"mrbc/internal/graph"
	"mrbc/internal/worklist"
)

// pathElem is an element of the forward (min, +, count) algebra.
type pathElem struct {
	dist  uint32
	count float64
}

// forwardSemiring combines tentative shortest-path elements: Plus takes
// the smaller distance and sums counts on ties; Extend lengthens a path
// by one unit edge.
var forwardSemiring = semiring[pathElem]{
	Identity: pathElem{dist: graph.InfDist},
	Plus: func(a, b pathElem) pathElem {
		switch {
		case a.dist < b.dist:
			return a
		case b.dist < a.dist:
			return b
		case a.dist == graph.InfDist:
			return a
		default:
			return pathElem{dist: a.dist, count: a.count + b.count}
		}
	},
	Extend: func(a pathElem) pathElem {
		if a.dist == graph.InfDist {
			return a
		}
		return pathElem{dist: a.dist + 1, count: a.count}
	},
}

// Options configures an MFBC run.
type Options struct {
	// BatchSize is k, the number of simultaneous sources; defaults to
	// 32. The paper picks the largest power of two that fits in memory.
	BatchSize int
	// Workers bounds the source-parallelism; defaults to GOMAXPROCS.
	Workers int
}

func (o Options) withDefaults() Options {
	if o.BatchSize <= 0 {
		o.BatchSize = 32
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o
}

// Stats reports the frontier-iteration counts of a run (the matrix
// analogue of BSP rounds).
type Stats struct {
	Batches            int
	ForwardIterations  int
	BackwardIterations int
}

// BC computes betweenness centrality restricted to sources. Within a
// batch, up to opts.Workers goroutines each run whole sources' forward
// and backward sweeps, and the sources fold into the scores and Stats
// in source order, so every worker count gives the same bits.
func BC(g *graph.Graph, sources []uint32, opts Options) ([]float64, Stats) {
	opts = opts.withDefaults()
	n := g.NumVertices()
	for _, s := range sources {
		if int(s) >= n {
			panic(fmt.Sprintf("mfbc: source %d out of range [0,%d)", s, n))
		}
	}
	g.EnsureInEdges() // the backward sweeps read Aᵀ; build it before workers share g
	scores := make([]float64, n)
	var stats Stats
	for start := 0; start < len(sources); start += opts.BatchSize {
		batch := sources[start:min(start+opts.BatchSize, len(sources))]
		stats.Batches++
		worklist.RunOrdered(len(batch), opts.Workers, func() (compute, retire func(int)) {
			sw := &sweeper{g: g, tent: make(vec[pathElem], n),
				prod: newVec(n, forwardSemiring), deps: make(vec[float64], n)}
			compute = func(j int) { sw.forward(batch[j]); sw.backward() }
			retire = func(j int) { sw.fold(batch[j], scores, &stats) }
			return compute, retire
		})
	}
	return scores, stats
}

// sweeper holds one worker's vectors for the sweeps of one source at a
// time.
type sweeper struct {
	g          *graph.Graph
	tent, prod vec[pathElem] // prod is all identity between products
	deps       vec[float64]
	touched    []uint32
	iters      int    // forward frontier iterations of the last source
	maxDist    uint32 // its deepest reached level
}

// forward runs the frontier sweep from s: masked products over A until
// no tentative element changes.
func (sw *sweeper) forward(s uint32) {
	tent := sw.tent
	for v := range tent {
		tent[v] = forwardSemiring.Identity
	}
	tent[s] = pathElem{dist: 0, count: 1}
	sw.iters, sw.maxDist = 0, 0
	frontier := []uint32{s}
	for len(frontier) > 0 {
		sw.iters++
		sw.touched = pushProduct(sw.g, tent, frontier, forwardSemiring, sw.prod, sw.touched[:0])
		frontier = frontier[:0]
		for _, v := range sw.touched {
			cand := sw.prod[v]
			sw.prod[v] = forwardSemiring.Identity
			cur := tent[v]
			merged := forwardSemiring.Plus(cur, cand)
			// The frontier advances where the product changed the
			// tentative element (improved distance or new counts at
			// the frontier distance).
			if merged.dist != cur.dist {
				tent[v] = merged
				frontier = append(frontier, v)
				if merged.dist != graph.InfDist && merged.dist > sw.maxDist {
					sw.maxDist = merged.dist
				}
			} else if merged.dist == cand.dist && merged.count != cur.count {
				// On an unweighted graph every count contribution
				// to a vertex arrives in the iteration that settles
				// its distance; a later equal-distance contribution
				// would require re-pushing deltas (the weighted
				// MFBC machinery, out of scope here).
				panic("mfbc: late count contribution; input must be unweighted")
			}
		}
		frontier = dedup(frontier)
	}
}

// backward runs the dependency sweep of the source forward last ran
// from: masked products over Aᵀ, one distance level per iteration.
func (sw *sweeper) backward() {
	tent, deps := sw.tent, sw.deps
	clear(deps)
	if sw.maxDist == 0 {
		return
	}
	// Bucket vertices by distance once.
	buckets := make([][]uint32, sw.maxDist+1)
	for v := range tent {
		if d := tent[v].dist; d != graph.InfDist && d > 0 {
			buckets[d] = append(buckets[d], uint32(v))
		}
	}
	for level := int(sw.maxDist); level >= 1; level-- {
		// coeff vector: (1+δ)/σ masked to the current level, then a
		// masked product over Aᵀ accumulates σu · coeff into
		// predecessors one level up.
		for _, w := range buckets[level] {
			coeff := (1 + deps[w]) / tent[w].count
			for _, u := range sw.g.InNeighbors(w) {
				if tent[u].dist != graph.InfDist && tent[u].dist+1 == uint32(level) {
					deps[u] += tent[u].count * coeff
				}
			}
		}
	}
}

// fold adds the swept source s into scores and stats.
func (sw *sweeper) fold(s uint32, scores []float64, stats *Stats) {
	stats.ForwardIterations += sw.iters
	stats.BackwardIterations += int(sw.maxDist)
	for v := range scores {
		if uint32(v) != s && sw.tent[v].dist != graph.InfDist {
			scores[v] += sw.deps[v]
		}
	}
}

func dedup(xs []uint32) []uint32 {
	if len(xs) < 2 {
		return xs
	}
	seen := make(map[uint32]bool, len(xs))
	out := xs[:0]
	for _, x := range xs {
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	return out
}
