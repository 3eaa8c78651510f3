package core

import (
	"fmt"
	"runtime"

	"mrbc/internal/graph"
	"mrbc/internal/worklist"
)

// Options configures a batched MRBC run.
type Options struct {
	// BatchSize is k, the number of sources processed simultaneously
	// (Figure 1 studies its effect). Defaults to 32, the paper's
	// small-graph setting.
	BatchSize int
	// Parallelism runs up to this many batches concurrently, each on
	// its own serial-cost engine, and retires them in batch order into
	// one score vector — the source-level parallelism of the paper's
	// single-host runs, bit-identical to the serial loop. 0 fills the
	// machine: GOMAXPROCS engines, at most one per batch and at most
	// sharedLabelBudget of label slabs.
	Parallelism int
}

const defaultBatchSize = 32

// planShared resolves a Parallelism value par for a run of the given
// number of batches of k sources over n vertices on procs cores: unset
// (≤ 0), an engine per core, never more than sharedLabelBudget holds;
// set or not, never more than there are batches. A one-batch or
// one-core run is the serial loop.
func planShared(procs, batches, n, k, par int) int {
	if par <= 0 {
		par = min(procs, int(sharedLabelBudget/(labelBytesPerPair*max(int64(n)*int64(k), 1))))
	}
	return max(1, min(par, batches))
}

// planned fills in BatchSize and the planShared parallelism for a run
// over numSources sources of g.
func (o Options) planned(g *graph.Graph, numSources int) Options {
	if o.BatchSize <= 0 {
		o.BatchSize = defaultBatchSize
	}
	batches := (numSources + o.BatchSize - 1) / o.BatchSize
	o.Parallelism = planShared(runtime.GOMAXPROCS(0), batches,
		g.NumVertices(), min(o.BatchSize, numSources), o.Parallelism)
	return o
}

// RunStats reports the model-level execution costs of a batched run.
type RunStats struct {
	Batches        int
	ForwardRounds  int   // BSP rounds across all batches, forward phase
	BackwardRounds int   // BSP rounds across all batches, backward phase
	LabelsSynced   int64 // number of (vertex, source) label synchronizations
}

// add folds another run's counters into s.
func (s *RunStats) add(o RunStats) {
	s.Batches += o.Batches
	s.ForwardRounds += o.ForwardRounds
	s.BackwardRounds += o.BackwardRounds
	s.LabelsSynced += o.LabelsSynced
}

// Rounds returns the total BSP rounds across phases and batches.
func (s RunStats) Rounds() int { return s.ForwardRounds + s.BackwardRounds }

// BC computes betweenness centrality restricted to the given sources
// using the batched Min-Rounds engine on shared memory (a single-host
// run of the Section 4 algorithm: one BSP round per CONGEST round,
// with the label synchronizations a distributed run would perform
// counted in the stats).
func BC(g *graph.Graph, sources []uint32, opts Options) ([]float64, RunStats) {
	opts = opts.planned(g, len(sources))
	n := g.NumVertices()
	for _, s := range sources {
		if int(s) >= n {
			panic(fmt.Sprintf("core: source %d out of range [0,%d)", s, n))
		}
	}
	g.EnsureInEdges() // build once, before engines share the graph
	var batches [][]uint32
	for start := 0; start < len(sources); start += opts.BatchSize {
		batches = append(batches, sources[start:min(start+opts.BatchSize, len(sources))])
	}
	kmax := min(opts.BatchSize, len(sources)) // the first batch's size
	scores := make([]float64, n)
	var stats RunStats
	// Batches are independent until they fold: each worker computes on
	// an engine of its own, and the folds into the one score vector
	// happen in batch order, so every float64 sum is the serial loop's.
	worklist.RunOrdered(len(batches), opts.Parallelism, func() (compute, retire func(int)) {
		loop := &batchLoop{g: g, kmax: kmax}
		var own RunStats
		compute = func(i int) { own = RunStats{}; loop.compute(batches[i], &own) }
		retire = func(i int) { loop.fold(batches[i], scores); stats.add(own) }
		return compute, retire
	})
	return scores, stats
}

// batchLoop runs a sequence of batches on one engine, built for the
// first batch and Reset for every later one.
type batchLoop struct {
	g     *graph.Graph
	kmax  int // largest batch the loop will see
	e     *Engine
	flags []Flag
}

// engine returns the loop's engine, clean and at stride k.
func (l *batchLoop) engine(k int) *Engine {
	if l.e == nil {
		l.e = NewEngine(l.g, l.kmax)
		if k == l.kmax {
			return l.e
		}
	}
	l.e.Reset(k)
	return l.e
}

// compute executes one k-source batch up to its fold: the forward
// k-SSP phase of Algorithm 3 with global termination detection
// (Lemma 8), then the backward accumulation phase of Algorithm 5.
func (l *batchLoop) compute(batch []uint32, stats *RunStats) {
	stats.Batches++
	e := l.engine(len(batch))
	for i, s := range batch {
		e.InitSource(s, i, true)
	}

	// Forward phase.
	R := forwardPhase(e, &l.flags, stats)
	stats.ForwardRounds += R

	// Backward phase.
	e.StartBackward(R)
	back := e.BackwardRounds()
	flags := l.flags
	for r := 1; r <= back; r++ {
		flags = e.BackwardFlags(r, flags[:0])
		for _, f := range flags {
			e.AccumulateIn(f.V, f.Src)
		}
		stats.LabelsSynced += int64(len(flags))
	}
	l.flags = flags
	stats.BackwardRounds += back
}

// fold adds the dependencies of the batch compute just ran into the
// scores (BC(w) += δs•(w), w ≠ s).
func (l *batchLoop) fold(batch []uint32, scores []float64) {
	e := l.e
	for v := range scores {
		row := v * e.k
		for i, s := range batch {
			if e.dist[row+i] != graph.InfDist && uint32(v) != s {
				scores[v] += e.delta[row+i]
			}
		}
	}
}

// forwardPhase runs the sequential forward loop on e to quiescence,
// returning the termination round R. It jumps over empty rounds via
// NextForwardRound.
func forwardPhase(e *Engine, flagsBuf *[]Flag, stats *RunStats) int {
	flags := *flagsBuf
	R := 0
	for r := 0; ; {
		r = e.NextForwardRound(r)
		if r < 0 {
			if e.PendingUnsent() {
				panic("core: forward phase terminated with pending unsent labels")
			}
			break // nothing scheduled anywhere
		}
		flags = e.ForwardFlags(r, flags[:0])
		if len(flags) == 0 {
			if !e.PendingUnsent() {
				break
			}
			continue
		}
		R = r
		for _, f := range flags {
			d := e.Get(f.V, f.Src)
			e.ApplySync(f.V, f.Src, d.Dist, d.Sigma, r)
		}
		for _, f := range flags {
			e.RelaxOutLocal(f.V, f.Src)
		}
		stats.LabelsSynced += int64(len(flags))
	}
	*flagsBuf = flags
	return R
}

// APSPBatch exposes the forward phase only: distances and shortest-path
// counts from each source in the batch, for library users who need
// k-SSP rather than BC. The batch runs on one engine.
func APSPBatch(g *graph.Graph, batch []uint32) (dist [][]uint32, sigma [][]float64, stats RunStats) {
	return APSPBatchOpts(g, batch, Options{})
}

// APSPBatchOpts is APSPBatch taking Options. A batch is one engine's
// work, so neither BatchSize (it is the batch) nor Parallelism applies.
func APSPBatchOpts(g *graph.Graph, batch []uint32, _ Options) (dist [][]uint32, sigma [][]float64, stats RunStats) {
	if len(batch) == 0 {
		return nil, nil, stats
	}
	for _, s := range batch {
		if int(s) >= g.NumVertices() {
			panic(fmt.Sprintf("core: source %d out of range", s))
		}
	}
	e := NewEngine(g, len(batch))
	for i, s := range batch {
		e.InitSource(s, i, true)
	}
	var flags []Flag
	R := forwardPhase(e, &flags, &stats)
	stats.Batches = 1
	stats.ForwardRounds = R
	n := g.NumVertices()
	dist = make([][]uint32, len(batch))
	sigma = make([][]float64, len(batch))
	for i := range batch {
		dist[i] = make([]uint32, n)
		sigma[i] = make([]float64, n)
		for v := 0; v < n; v++ {
			d := e.Get(uint32(v), i)
			dist[i][v] = d.Dist
			sigma[i][v] = d.Sigma
		}
	}
	return dist, sigma, stats
}
