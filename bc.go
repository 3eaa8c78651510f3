// Package mrbc computes betweenness centrality (BC) on unweighted
// directed graphs. It is a from-scratch Go reproduction of
//
//	"A Round-Efficient Distributed Betweenness Centrality Algorithm",
//	Hoang, Pontecorvi, Dathathri, Gill, You, Pingali, Ramachandran,
//	PPoPP 2019.
//
// The primary contribution, Min-Rounds BC (MRBC), pipelines the
// all-pairs-shortest-paths computation so that a batch of k sources
// costs at most 2(k+H) synchronous rounds (H = largest finite
// distance) instead of the ~2·k·H rounds of level-by-level Brandes —
// the property that makes it communication-efficient on distributed
// clusters.
//
// The package exposes:
//
//   - Betweenness: one entry point over five interchangeable engines —
//     MRBC (shared-memory batched or simulated-distributed), the exact
//     CONGEST-model MRBC of the paper's Section 3, and the paper's
//     baselines (Brandes, asynchronous Brandes, synchronous distributed
//     Brandes, Maximal-Frontier BC).
//   - ShortestPaths: the forward k-SSP phase alone (distances and
//     shortest-path counts).
//   - Graph construction, generators, and I/O re-exported from the
//     internal substrate.
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// reproduction of the paper's tables and figures.
package mrbc

import (
	"fmt"
	"math"
	"sort"
	"time"

	"mrbc/internal/brandes"
	"mrbc/internal/core"
	"mrbc/internal/gen"
	"mrbc/internal/graph"
	"mrbc/internal/mfbc"
	"mrbc/internal/mrbcdist"
	"mrbc/internal/partition"
	"mrbc/internal/sbbc"
)

// Graph is a directed unweighted graph in CSR form.
type Graph = graph.Graph

// Builder accumulates edges for a Graph.
type Builder = graph.Builder

// InfDist marks an unreachable vertex in distance arrays.
const InfDist = graph.InfDist

// NewBuilder returns a Builder for a graph with n vertices.
func NewBuilder(n int) *Builder { return graph.NewBuilder(n) }

// FromEdges builds a graph with n vertices from an edge list.
func FromEdges(n int, edges [][2]uint32) *Graph { return graph.FromEdges(n, edges) }

// Load reads a graph from a file (text edge list, or the binary CSR
// format for ".gr"/".bin" extensions).
func Load(path string) (*Graph, error) { return graph.Load(path) }

// Algorithm selects a BC engine.
type Algorithm string

const (
	// MRBC is Min-Rounds BC, the paper's contribution: batched,
	// round-efficient, run either on shared memory (Hosts <= 1) or on
	// the simulated D-Galois cluster (Hosts > 1).
	MRBC Algorithm = "mrbc"
	// SBBC is Synchronous-Brandes BC: level-by-level BFS per source on
	// the same substrate.
	SBBC Algorithm = "sbbc"
	// ABBC is Asynchronous-Brandes BC: shared-memory, worklist-driven.
	ABBC Algorithm = "abbc"
	// MFBC is Maximal-Frontier BC: sparse-matrix Bellman-Ford.
	MFBC Algorithm = "mfbc"
	// Brandes is the sequential reference algorithm.
	Brandes Algorithm = "brandes"
	// Congest runs the paper's Section 3 algorithms on an exact
	// CONGEST-model simulation, reporting model rounds and messages.
	Congest Algorithm = "congest"
)

// PartitionPolicy selects how a distributed run splits the graph.
type PartitionPolicy string

const (
	// EdgeCut is the 1D outgoing edge-cut.
	EdgeCut PartitionPolicy = "edge-cut"
	// CartesianCut is the 2D Cartesian vertex-cut the paper uses at
	// scale.
	CartesianCut PartitionPolicy = "cartesian"
)

// Options configures Betweenness.
type Options struct {
	// Algorithm defaults to MRBC.
	Algorithm Algorithm
	// Hosts is the number of simulated hosts for MRBC/SBBC; values <= 1
	// run on shared memory without a cluster.
	Hosts int
	// Partition picks the partitioning policy for distributed runs;
	// defaults to CartesianCut.
	Partition PartitionPolicy
	// BatchSize is k for batched algorithms (MRBC, MFBC); default 32.
	BatchSize int
	// Workers bounds shared-memory parallelism. For ABBC it is the
	// worker-goroutine count within each source; for Brandes and MFBC
	// the number of sources computed concurrently. For shared-memory
	// MRBC it is the number of batches that run concurrently, each on a
	// private engine (core.Options.Parallelism). Sources (batches, for
	// MRBC) fold into the scores in order, so scores do not depend on
	// it. Workers == 0 uses every core, for MRBC one engine per core
	// while there are batches to fill them.
	Workers int
	// ChunkSize is the ABBC worklist chunk size; default 8 (the paper
	// uses 64 for road networks).
	ChunkSize int
}

// Result holds BC scores and execution metrics.
type Result struct {
	// Scores[v] is the betweenness score of vertex v summed over the
	// requested sources (exact BC when all vertices are sources).
	Scores []float64
	// Rounds is the number of synchronous rounds executed, when the
	// engine is round-based (0 for ABBC/Brandes).
	Rounds int
	// Messages and Bytes count inter-host communication for
	// distributed engines, or CONGEST messages for Congest.
	Messages int64
	Bytes    int64
	// Duration is the wall-clock time of the computation.
	Duration time.Duration
}

// Betweenness computes betweenness centrality restricted to the given
// sources. Passing all vertices yields exact BC; the paper's
// evaluation samples a contiguous chunk (see Sources).
func Betweenness(g *Graph, sources []uint32, opts Options) (*Result, error) {
	if opts.Algorithm == "" {
		opts.Algorithm = MRBC
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
		res.Scores = brandes.Parallel(g, sources, opts.Workers)
	case ABBC:
		res.Scores = brandes.Async(g, sources, brandes.AsyncConfig{
			Workers:   opts.Workers,
			ChunkSize: opts.ChunkSize,
		})
	case MFBC:
		scores, stats := mfbc.BC(g, sources, mfbc.Options{
			BatchSize: opts.BatchSize,
			Workers:   opts.Workers,
		})
		res.Scores = scores
		res.Rounds = stats.ForwardIterations + stats.BackwardIterations
	case MRBC:
		if opts.Hosts <= 1 {
			// Workers maps to batch-level parallelism; core.planShared
			// resolves a zero to one engine per core.
			scores, stats := core.BC(g, sources, core.Options{
				BatchSize:   opts.BatchSize,
				Parallelism: opts.Workers,
			})
			res.Scores = scores
			res.Rounds = stats.Rounds()
		} else {
			pt, err := makePartition(g, opts)
			if err != nil {
				return nil, err
			}
			scores, stats := mrbcdist.Run(g, pt, sources, mrbcdist.Options{BatchSize: opts.BatchSize})
			res.Scores = scores
			res.Rounds = stats.Rounds
			res.Messages = stats.Messages
			res.Bytes = stats.Bytes
		}
	case SBBC:
		hosts := opts.Hosts
		if hosts <= 1 {
			hosts = 1
		}
		pt, err := makePartitionN(g, opts, hosts)
		if err != nil {
			return nil, err
		}
		scores, stats := sbbc.Run(g, pt, sources)
		res.Scores = scores
		res.Rounds = stats.Rounds
		res.Messages = stats.Messages
		res.Bytes = stats.Bytes
	case Congest:
		r := core.CongestBC(g, core.CongestOptions{Sources: sources, Mode: core.ModeQuiesce})
		res.Scores = r.BC
		res.Rounds = r.Stats.Rounds()
		res.Messages = r.Stats.Messages()
	default:
		return nil, fmt.Errorf("mrbc: unknown algorithm %q", opts.Algorithm)
	}
	res.Duration = time.Since(start)
	return res, nil
}

func makePartition(g *Graph, opts Options) (*partition.Partitioning, error) {
	return makePartitionN(g, opts, opts.Hosts)
}

func makePartitionN(g *Graph, opts Options, hosts int) (*partition.Partitioning, error) {
	policy := opts.Partition
	if policy == "" {
		policy = CartesianCut
	}
	pt, err := partition.ByName(g, string(policy), hosts)
	if err != nil {
		return nil, fmt.Errorf("mrbc: %w", err)
	}
	return pt, nil
}

// ShortestPaths runs the forward k-SSP phase of MRBC: for each source,
// the distance (InfDist when unreachable) and number of shortest paths
// to every vertex.
func ShortestPaths(g *Graph, sources []uint32) (dist [][]uint32, sigma [][]float64, err error) {
	n := g.NumVertices()
	for _, s := range sources {
		if int(s) >= n {
			return nil, nil, fmt.Errorf("mrbc: source %d out of range [0,%d)", s, n)
		}
	}
	dist, sigma, _ = core.APSPBatch(g, sources)
	return dist, sigma, nil
}

// Sources returns the contiguous source chunk [start, start+k), the
// sampling the paper's evaluation uses for comparability across
// engines.
func Sources(g *Graph, start, k int) []uint32 {
	return brandes.FirstKSources(g, start, k)
}

// AllSources returns every vertex, for exact BC.
func AllSources(g *Graph) []uint32 {
	out := make([]uint32, g.NumVertices())
	for i := range out {
		out[i] = uint32(i)
	}
	return out
}

// Ranked pairs a vertex with its score.
type Ranked struct {
	Vertex uint32
	Score  float64
}

// TopK returns the k highest-scoring vertices in descending score
// order (ties broken by vertex ID); none when k <= 0.
func TopK(scores []float64, k int) []Ranked {
	all := make([]Ranked, len(scores))
	for v, s := range scores {
		all[v] = Ranked{Vertex: uint32(v), Score: s}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Score != all[j].Score {
			return all[i].Score > all[j].Score
		}
		return all[i].Vertex < all[j].Vertex
	})
	k = min(max(k, 0), len(all))
	return all[:k]
}

// AutotuneBatchSize probes a few batch sizes on a prefix of the
// sources and returns the fastest, implementing the autotuning the
// paper leaves as future work (§5.2). Pass nil candidates for the
// default {16, 32, 64, 128}.
func AutotuneBatchSize(g *Graph, sources []uint32, candidates []int) int {
	return core.AutotuneBatch(g, sources, candidates, 0)
}

// Undirected returns the undirected version of g (each edge in both
// directions). Theorem 1 part III: all MRBC bounds hold on undirected
// graphs with the undirected diameter; compute undirected BC by
// passing the result to Betweenness.
func Undirected(g *Graph) *Graph { return g.Undirected() }

// MaxAbsDifference returns the largest absolute difference between two
// score vectors, or +Inf when their lengths differ; handy for
// validating one engine against another.
func MaxAbsDifference(a, b []float64) float64 {
	if len(a) != len(b) {
		return math.Inf(1)
	}
	var max float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > max {
			max = d
		}
	}
	return max
}

// Generators, re-exported for examples and tools.

// GenerateRMAT generates a power-law R-MAT graph with 2^scale vertices.
func GenerateRMAT(scale, edgeFactor int, seed int64) *Graph {
	return gen.RMAT(scale, edgeFactor, seed)
}

// GenerateKronecker generates a Kronecker-style power-law graph.
func GenerateKronecker(scale, edgeFactor int, seed int64) *Graph {
	return gen.Kronecker(scale, edgeFactor, seed)
}

// GenerateRoadGrid generates a road-network-like high-diameter graph.
func GenerateRoadGrid(rows, cols int, seed int64) *Graph {
	return gen.RoadGrid(rows, cols, seed)
}

// GenerateWebCrawl generates a web-crawl-like graph: a power-law core
// with long pendant tails (non-trivial diameter).
func GenerateWebCrawl(coreScale, edgeFactor, tails, tailLen int, seed int64) *Graph {
	return gen.WebCrawl(coreScale, edgeFactor, tails, tailLen, seed)
}
