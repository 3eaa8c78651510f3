package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"mrbc/internal/graph"
)

// SchedulerKind selects the engine's forward flag-discovery structure.
type SchedulerKind int

const (
	// BucketScheduler (default) indexes vertices by due round in a
	// calendar queue with lazy deletion: ForwardFlags costs
	// O(|flags| + stale entries) per round and empty rounds are
	// skipped entirely.
	BucketScheduler SchedulerKind = iota
	// ScanScheduler is the seed behavior: every round scans all n
	// vertices for due entries. Kept as a baseline for benchmarks and
	// equivalence tests; forces Workers to 1.
	ScanScheduler
)

// Options configures a batched MRBC run.
//
// Parallelism and Workers are the two levels of shared-memory
// parallelism; planShared resolves whichever is left unset:
//
//   - Parallelism (batch-level, the first level) runs whole batches
//     concurrently, each on its own serial-cost engine, and retires
//     them in batch order into one score vector — the source-level
//     parallelism of the paper's single-host runs, bit-identical to the
//     serial loop.
//   - Workers (intra-batch) splits each round's compute phase of one
//     batch across goroutines by vertex ownership (see parallel.go) —
//     for the cores that outnumber the batches.
type Options struct {
	// BatchSize is k, the number of sources processed simultaneously
	// (Figure 1 studies its effect). Defaults to 32, the paper's
	// small-graph setting.
	BatchSize int
	// Parallelism runs up to this many batches concurrently, each on
	// its own engine. 0 fills the machine: GOMAXPROCS (divided by an
	// explicit Workers) engines, at most one per batch and at most
	// sharedLabelBudget of label slabs.
	Parallelism int
	// Workers is the intra-batch worker count per batch. 0 autotunes
	// over the cores Parallelism leaves (frontier-size crossover, capped
	// at GOMAXPROCS/Parallelism so the two levels compose without
	// oversubscribing); 1 disables intra-batch parallelism and runs
	// the serial bucket path — no pool, no deques, no per-shard
	// outboxes.
	Workers int
	// Scheduler selects the flag-discovery structure; defaults to
	// BucketScheduler.
	Scheduler SchedulerKind
}

const defaultBatchSize = 32

// planShared resolves (Parallelism, Workers) for a run of the given
// number of batches of k sources over n vertices on procs cores. Whole
// batches come first: an engine per core, never more than there are
// batches or than sharedLabelBudget holds; intra-batch workers get the
// cores that are left, so a one-batch run is the staged Runner's and a
// one-core run the serial loop.
func planShared(procs, batches, n, k int, o Options) (par, workers int) {
	if o.Scheduler == ScanScheduler {
		// The scan path predates vertex-ownership sharding and is
		// single-threaded within a batch.
		o.Workers = 1
	}
	nk := max(int64(n)*int64(k), 1)
	if par = o.Parallelism; par <= 0 {
		par = min(procs/max(1, o.Workers), int(sharedLabelBudget/(labelBytesPerPair*nk)))
	}
	par = max(1, min(par, batches))
	if workers = o.Workers; workers <= 0 {
		workers = autotuneWorkers(nk, procs/par)
	}
	return par, workers
}

// planned fills in BatchSize and the planShared levels for a run over
// numSources sources of g.
func (o Options) planned(g *graph.Graph, numSources int) Options {
	if o.BatchSize <= 0 {
		o.BatchSize = defaultBatchSize
	}
	batches := (numSources + o.BatchSize - 1) / o.BatchSize
	o.Parallelism, o.Workers = planShared(runtime.GOMAXPROCS(0), batches,
		g.NumVertices(), min(o.BatchSize, numSources), o)
	return o
}

// RunStats reports the model-level execution costs of a batched run,
// plus the intra-batch runtime's scheduler counters (all zero on
// serial runs: Workers=1 never touches the pool).
type RunStats struct {
	Batches        int
	ForwardRounds  int   // BSP rounds across all batches, forward phase
	BackwardRounds int   // BSP rounds across all batches, backward phase
	LabelsSynced   int64 // number of (vertex, source) label synchronizations

	// InlineRounds / ParallelRounds split the rounds the parallel
	// runtime executed by whether the inline gate kept them on the
	// caller (tiny frontier) or fanned them out to the worker pool.
	InlineRounds   int64
	ParallelRounds int64
	// Steals counts shard-tasks claimed from another worker's deque;
	// FailedSteals counts sweeps that found every deque empty.
	Steals       int64
	FailedSteals int64
}

// add folds another run's counters into s.
func (s *RunStats) add(o RunStats) {
	s.Batches += o.Batches
	s.ForwardRounds += o.ForwardRounds
	s.BackwardRounds += o.BackwardRounds
	s.LabelsSynced += o.LabelsSynced
	s.InlineRounds += o.InlineRounds
	s.ParallelRounds += o.ParallelRounds
	s.Steals += o.Steals
	s.FailedSteals += o.FailedSteals
}

// Rounds returns the total BSP rounds across phases and batches.
func (s RunStats) Rounds() int { return s.ForwardRounds + s.BackwardRounds }

// RoundsPerSource returns the average number of rounds per source, the
// quantity Table 1 reports.
func (s RunStats) RoundsPerSource(numSources int) float64 {
	if numSources == 0 {
		return 0
	}
	return float64(s.Rounds()) / float64(numSources)
}

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
	runOrdered(len(batches), opts.Parallelism, func() (compute, retire func(int), done func()) {
		loop := &batchLoop{g: g, kmax: kmax, opts: opts}
		var own RunStats
		compute = func(i int) { own = RunStats{}; loop.compute(batches[i], &own) }
		retire = func(i int) { loop.fold(batches[i], scores); stats.add(own) }
		return compute, retire, loop.close
	})
	return scores, stats
}

// runOrdered runs tasks 0..n-1 on up to workers goroutines, each with
// the compute/retire/done triple one newWorker call hands it. A worker
// claims the next index, computes it concurrently with the others, then
// retires it in its turn: retire(i) runs only after retire(i-1)
// returned, never two at once. A panic anywhere stops further claims,
// wakes every worker waiting for a turn the lost task would never pass
// on, and is re-raised on the caller once all workers have exited. One
// worker is a plain loop on the caller.
func runOrdered(n, workers int, newWorker func() (compute, retire func(i int), done func())) {
	if workers = min(workers, n); workers <= 1 {
		compute, retire, done := newWorker()
		defer done()
		for i := 0; i < n; i++ {
			compute(i)
			retire(i)
		}
		return
	}
	var (
		next   atomic.Int64
		mu     sync.Mutex
		passed = sync.NewCond(&mu)
		turn   int // the index allowed to retire; guarded by mu
		failed any // first panic value; guarded by mu
		wg     sync.WaitGroup
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					next.Store(int64(n))
					mu.Lock()
					if failed == nil {
						failed = p
					}
					mu.Unlock()
					passed.Broadcast()
				}
			}()
			compute, retire, done := newWorker()
			defer done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				compute(i)
				mu.Lock()
				for turn != i && failed == nil {
					passed.Wait()
				}
				abort := failed != nil
				mu.Unlock()
				if abort {
					return
				}
				retire(i)
				mu.Lock()
				turn++
				mu.Unlock()
				passed.Broadcast()
			}
		}()
	}
	wg.Wait()
	if failed != nil {
		panic(failed)
	}
}

// batchLoop runs a sequence of batches on one engine — and, with
// Workers > 1, one Runner, so its pool and outboxes persist too. The
// engine is built for the first batch and Reset for every later one.
type batchLoop struct {
	g     *graph.Graph
	kmax  int     // largest batch the loop will see
	opts  Options // with defaults applied
	e     *Engine
	r     *Runner // non-nil iff the engine is sharded
	flags []Flag
}

func (l *batchLoop) close() {
	if l.r != nil {
		l.r.Close()
	}
}

// engine returns the loop's engine, clean and at stride k.
func (l *batchLoop) engine(k int) *Engine {
	if l.e == nil {
		eo := EngineOpts{Scan: l.opts.Scheduler == ScanScheduler}
		if l.opts.Workers > 1 {
			// The shard count comes from the graph (ParallelShards), not
			// from Workers: over-partitioning gives the stealing scheduler
			// slack, and a worker-independent fan-out keeps every
			// application order — hence every float64 sum — identical
			// across worker counts. A single-vertex graph collapses to one
			// shard and runs sequentially.
			eo.Shards = ParallelShards(l.g.NumVertices())
		}
		l.e = NewEngineOpts(l.g, l.kmax, eo)
		if l.e.NumShards() > 1 {
			l.r = NewRunner(l.e, l.opts.Workers)
		}
		if k == l.kmax {
			return l.e
		}
	}
	if l.r != nil {
		l.r.Reset(k)
	} else {
		l.e.Reset(k)
	}
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
	if run := l.r; run != nil {
		R := run.forward(stats)
		stats.ForwardRounds += R
		stats.BackwardRounds += run.backward(R, stats)
		run.flushRunStats(stats)
		return
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
	if l.r != nil {
		l.r.fold(batch, scores)
		return
	}
	foldRange(l.e, batch, scores, 0, l.g.NumVertices())
}

// forwardPhase runs the sequential forward loop on e to quiescence,
// returning the termination round R. A bucketed engine jumps over
// empty rounds via NextForwardRound; a scan engine advances one round
// at a time and terminates on the first idle round.
func forwardPhase(e *Engine, flagsBuf *[]Flag, stats *RunStats) int {
	flags := *flagsBuf
	R := 0
	for r := 0; ; {
		r = e.NextForwardRound(r)
		if r < 0 {
			if e.PendingUnsent() {
				panic("core: forward phase terminated with pending unsent labels")
			}
			break // bucketed: nothing scheduled anywhere
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
// k-SSP rather than BC. It uses default Options (bucket scheduler,
// autotuned intra-batch workers).
func APSPBatch(g *graph.Graph, batch []uint32) (dist [][]uint32, sigma [][]float64, stats RunStats) {
	return APSPBatchOpts(g, batch, Options{})
}

// APSPBatchOpts is APSPBatch with explicit scheduler/worker options.
func APSPBatchOpts(g *graph.Graph, batch []uint32, opts Options) (dist [][]uint32, sigma [][]float64, stats RunStats) {
	if len(batch) == 0 {
		return nil, nil, stats
	}
	opts.BatchSize = len(batch)
	opts = opts.planned(g, len(batch))
	for _, s := range batch {
		if int(s) >= g.NumVertices() {
			panic(fmt.Sprintf("core: source %d out of range", s))
		}
	}
	var e *Engine
	if opts.Workers > 1 {
		e = NewEngineOpts(g, len(batch), EngineOpts{Shards: ParallelShards(g.NumVertices())})
	} else {
		e = NewEngineOpts(g, len(batch), EngineOpts{Scan: opts.Scheduler == ScanScheduler})
	}
	for i, s := range batch {
		e.InitSource(s, i, true)
	}
	var R int
	if e.NumShards() > 1 {
		run := NewRunner(e, opts.Workers)
		defer run.Close()
		R = run.forward(&stats)
		run.flushRunStats(&stats)
	} else {
		var flags []Flag
		R = forwardPhase(e, &flags, &stats)
	}
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
