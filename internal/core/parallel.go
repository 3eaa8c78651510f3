package core

import (
	"fmt"
	"sync"

	"mrbc/internal/graph"
)

// This file implements the intra-batch parallel runtime: a fixed set of
// workers executing per-shard tasks from Chase-Lev work-stealing deques
// (deque.go), so skewed frontiers — road corridors where one shard holds
// the whole wavefront, RMAT hubs whose out-edge fans dwarf every other
// shard's — do not serialize the round on one worker.
//
// Every round runs as two barrier-separated phases over the engine's
// ownership shards (contiguous vertex ranges, see Engine.shardOf):
//
//  1. generate: the task for shard sh collects and synchronizes the
//     shard's due flags (all label writes are shard-local), then walks
//     the flagged vertices' edges and stages one update per edge into
//     the (sh, target-shard) outbox.
//  2. apply: the task for shard sh drains the outboxes addressed to sh,
//     in from-shard order, applying updates to the vertices it owns.
//
// Work stealing moves whole shard-tasks between workers, never splits
// one, so the ownership discipline survives stealing: each shard's
// state is touched by exactly one worker per phase, with the phase
// barrier ordering generation before application. No locks or atomics
// sit on the label path; the only atomics are the deque cursors, and
// the hot counters (flag tallies, steal/idle counts) live in padded
// per-worker cells flushed once per phase boundary.
//
// Determinism across worker counts is structural, not tolerance-based:
//
//   - Shards partition vertices into contiguous ranges and the shard
//     count is fixed by the graph (ParallelShards), not by Workers, so
//     concatenating per-shard flag lists in shard order yields the same
//     global order no matter how many workers execute the tasks.
//   - The apply phase drains outboxes in from-shard order, and each
//     from-shard stages updates in flag order, so the sequence of
//     contributions reaching any given (vertex, source) equals the
//     sequence the serial engine produces. σ sums (integers in float64)
//     and distance minima are order-exact anyway; the backward δ sums
//     are fractional, and this canonical order makes them bitwise equal
//     to the serial path for every worker count — the property
//     TestWorkerCountInvariance pins.
//
// The backward pass is level-synchronous (parlaylib-style): backward
// round r is exactly one DAG level (all pairs with A_sv = r), and a
// predecessor u of a flagged v satisfies τ_su < τ_sv, hence
// A_su > A_sv — so generation's reads of σ_u, d_u, and the flagged δ_v
// never race with the δ_u writes of the same round's apply phase.
//
// Tiny rounds skip all of it: when the due count is at or below
// inlineFrontierLimit the round runs inline on the caller in the same
// shard order, producing identical results at serial cost (the
// "degrades to serial-bucket cost" half of the design).

// inlineFrontierLimit is the due-count at or below which a round runs
// inline on the caller instead of fanning out to the worker pool: below
// roughly a hundred (vertex, source) pairs the two phase barriers cost
// more than the round's work. Fixed (not per-worker) so the
// inline/parallel decision — and therefore the execution order — is
// identical for every worker count. A variable only so tests can force
// the pool path on small graphs; production code never writes it.
var inlineFrontierLimit = 128

// relaxUpdate is one staged forward contribution to target vertex w.
type relaxUpdate struct {
	w     uint32
	src   int32
	dist  uint32
	sigma float64
}

// deltaUpdate is one staged backward δ contribution to predecessor u.
type deltaUpdate struct {
	u   uint32
	src int32
	val float64
}

// WorkerStats is one worker's scheduler counters since the Runner was
// built or last Reset: how many shard-tasks it executed, how many of
// those it stole from another worker's deque, how many steal sweeps
// found every deque empty (idle exits), and how many phase-boundary
// counter flushes it performed.
type WorkerStats struct {
	Tasks        int64
	Steals       int64
	FailedSteals int64
	Flushes      int64
}

// workerCell is the per-worker hot counter block. Workers increment
// their own cell without synchronization; the pool reads cells only
// between phases. Padded to a cache line so adjacent workers' counters
// never share one.
type workerCell struct {
	tasks        int64
	steals       int64
	failedSteals int64
	flushes      int64
	staged       int64 // per-phase staged tally, flushed at the barrier
	_            [3]int64
}

// wsPool runs one callback per task per phase on a fixed set of worker
// goroutines fed by per-worker work-stealing deques.
type wsPool struct {
	workers int
	deques  []wsDeque
	cells   []workerCell
	fn      func(task, worker int)
	wake    []chan struct{}
	exit    sync.WaitGroup
}

func newWSPool(workers int) *wsPool {
	p := &wsPool{
		workers: workers,
		deques:  make([]wsDeque, workers),
		cells:   make([]workerCell, workers),
		wake:    make([]chan struct{}, workers),
	}
	for i := 0; i < workers; i++ {
		p.wake[i] = make(chan struct{}, 1)
		go p.worker(i)
	}
	return p
}

func (p *wsPool) worker(id int) {
	for range p.wake[id] {
		p.drain(id)
		p.exit.Done()
	}
}

// drain claims tasks until none are visible anywhere: own deque first
// (LIFO), then a steal sweep over the other workers' deques. Tasks
// never spawn subtasks, so a sweep that observes every deque empty
// means every task has been claimed (any still running finish on the
// workers that claimed them) and this worker can exit the phase.
func (p *wsPool) drain(id int) {
	c := &p.cells[id]
	own := &p.deques[id]
	for {
		task, ok := own.pop()
		if !ok {
			task, ok = p.trySteal(id)
			if !ok {
				c.failedSteals++
				return
			}
			c.steals++
		}
		p.fn(int(task), id)
		c.tasks++
	}
}

func (p *wsPool) trySteal(id int) (int32, bool) {
	for off := 1; off < p.workers; off++ {
		if t, ok := p.deques[(id+off)%p.workers].steal(); ok {
			return t, true
		}
	}
	return 0, false
}

// runPhase distributes tasks 0..tasks-1 over the deques in contiguous
// blocks, wakes the workers, and returns once every worker has exited
// its drain loop — which implies every task ran to completion.
func (p *wsPool) runPhase(tasks int, fn func(task, worker int)) {
	p.fn = fn
	for i := range p.deques {
		p.deques[i].reset(tasks)
	}
	// Push descending so each owner pops its block in ascending order
	// (pure locality; correctness never depends on execution order).
	for t := tasks - 1; t >= 0; t-- {
		p.deques[t*p.workers/tasks].push(int32(t))
	}
	p.exit.Add(p.workers)
	for i := range p.wake {
		p.wake[i] <- struct{}{}
	}
	p.exit.Wait()
	p.fn = nil
}

// flushStaged folds the per-worker staged tallies into one total at a
// phase boundary, resetting the cells. Called only between phases.
func (p *wsPool) flushStaged() int64 {
	var total int64
	for i := range p.cells {
		c := &p.cells[i]
		if c.staged != 0 {
			total += c.staged
			c.staged = 0
			c.flushes++
		}
	}
	return total
}

func (p *wsPool) close() {
	for i := range p.wake {
		close(p.wake[i])
	}
}

// Runner drives per-round compute phases of one engine on a
// work-stealing worker pool. The shared-memory path (BC) uses its
// forward/backward/fold drivers; the distributed path (mrbcdist) uses
// RelaxAll/AccumulateAll on each host's engine. A Runner with one
// worker runs everything inline on the caller with no pool at all.
type Runner struct {
	e     *Engine
	pool  *wsPool // nil when workers == 1
	tasks int     // generation chunk count == len(e.shards)

	flags    [][]Flag          // per-shard flag scratch
	relaxOut [][][]relaxUpdate // [from][to] outboxes
	deltaOut [][][]deltaUpdate // [from][to] outboxes

	inlineRounds   int64
	parallelRounds int64
}

// NewRunner creates a runner with the given worker count over e.
// Workers are clamped to [1, NumShards()]: a task is one whole shard,
// so extra workers past the shard count could never claim work.
func NewRunner(e *Engine, workers int) *Runner {
	s := e.NumShards()
	if workers > s {
		workers = s
	}
	if workers < 1 {
		workers = 1
	}
	r := &Runner{
		e:        e,
		tasks:    s,
		flags:    make([][]Flag, s),
		relaxOut: make([][][]relaxUpdate, s),
		deltaOut: make([][][]deltaUpdate, s),
	}
	for i := 0; i < s; i++ {
		r.relaxOut[i] = make([][]relaxUpdate, s)
		r.deltaOut[i] = make([][]deltaUpdate, s)
	}
	if workers > 1 {
		r.pool = newWSPool(workers)
	}
	return r
}

// Workers returns the effective worker count.
func (r *Runner) Workers() int {
	if r.pool == nil {
		return 1
	}
	return r.pool.workers
}

// WorkerStats returns per-worker scheduler counters (nil for a
// single-worker runner). Call only between phases.
func (r *Runner) WorkerStats() []WorkerStats {
	if r.pool == nil {
		return nil
	}
	out := make([]WorkerStats, r.pool.workers)
	for i := range out {
		c := &r.pool.cells[i]
		out[i] = WorkerStats{Tasks: c.tasks, Steals: c.steals, FailedSteals: c.failedSteals, Flushes: c.flushes}
	}
	return out
}

// Reset prepares the runner and its engine for the next batch of k
// sources (see Engine.Reset): the pool's goroutines and the outboxes'
// capacity stay, updates a batch abandoned mid-round left staged are
// dropped, and the scheduler counters restart from zero so WorkerStats
// and flushRunStats report one batch at a time.
func (r *Runner) Reset(k int) {
	r.e.Reset(k)
	for from := range r.relaxOut {
		for to := range r.relaxOut[from] {
			r.relaxOut[from][to] = r.relaxOut[from][to][:0]
			r.deltaOut[from][to] = r.deltaOut[from][to][:0]
		}
	}
	r.inlineRounds, r.parallelRounds = 0, 0
	if r.pool != nil {
		clear(r.pool.cells)
	}
}

// Close shuts down the worker pool. The runner must not be used after.
func (r *Runner) Close() {
	if r.pool != nil {
		r.pool.close()
	}
}

func (r *Runner) runPhase(fn func(task, worker int)) {
	if r.pool == nil {
		for t := 0; t < r.tasks; t++ {
			fn(t, 0)
		}
		return
	}
	r.pool.runPhase(r.tasks, fn)
}

// stageRelax walks the out-edges of the given flags and stages one
// relaxUpdate per edge into out, keyed by the target's shard.
func (r *Runner) stageRelax(flags []Flag, out [][]relaxUpdate) {
	e := r.e
	for _, f := range flags {
		i := e.idx(f.V, f.Src)
		cand, sigma := e.dist[i]+1, e.sigma[i]
		for _, w := range e.g.OutNeighbors(f.V) {
			t := e.shardOf(w)
			out[t] = append(out[t], relaxUpdate{w: w, src: int32(f.Src), dist: cand, sigma: sigma})
		}
	}
}

// applyRelaxInbox drains the relax outboxes addressed to shard sh in
// from-shard order.
func (r *Runner) applyRelaxInbox(sh int) {
	e := r.e
	for from := 0; from < r.tasks; from++ {
		ups := r.relaxOut[from][sh]
		for _, u := range ups {
			e.applyRelax(u.w, int(u.src), u.dist, u.sigma)
		}
		r.relaxOut[from][sh] = ups[:0]
	}
}

// stageDelta walks the in-edges of the given backward flags and stages
// one δ contribution per shortest-path DAG edge into out, keyed by the
// predecessor's shard (Steps 7-9 of Algorithm 5, split at the edge).
func (r *Runner) stageDelta(flags []Flag, out [][]deltaUpdate) {
	e := r.e
	for _, f := range flags {
		i := e.idx(f.V, f.Src)
		if e.sigma[i] == 0 {
			panic(fmt.Sprintf("core: zero sigma at (%d,%d) during accumulation", f.V, f.Src))
		}
		m := (1 + e.delta[i]) / e.sigma[i]
		dv := e.dist[i]
		for _, u := range e.g.InNeighbors(f.V) {
			j := int(u)*e.k + f.Src
			if du := e.dist[j]; du+1 == dv && du != graph.InfDist {
				t := e.shardOf(u)
				out[t] = append(out[t], deltaUpdate{u: u, src: int32(f.Src), val: e.sigma[j] * m})
			}
		}
	}
}

// applyDeltaInbox drains the δ outboxes addressed to shard sh in
// from-shard order. From-shards stage in flag order and the global flag
// order is ascending (vertex, source) — the serial order — so each
// (u, s) receives its contributions in the exact serial sequence and
// the float64 sums are bitwise reproducible across worker counts.
func (r *Runner) applyDeltaInbox(sh int) {
	e := r.e
	for from := 0; from < r.tasks; from++ {
		ups := r.deltaOut[from][sh]
		for _, u := range ups {
			e.delta[int(u.u)*e.k+int(u.src)] += u.val
		}
		r.deltaOut[from][sh] = ups[:0]
	}
}

// forward runs the parallel forward phase (Algorithm 3) to quiescence
// and returns the termination round R.
func (r *Runner) forward(stats *RunStats) int {
	e := r.e
	R := 0
	var scratch []Flag
	for rnd := 0; ; {
		rnd = e.NextForwardRound(rnd)
		if rnd < 0 {
			break
		}
		if r.pool == nil || e.dueEstimate(rnd) <= inlineFrontierLimit {
			// Tiny round: run it inline in shard order. Identical code
			// path and order as the pool, minus two barriers.
			scratch = e.ForwardFlags(rnd, scratch[:0])
			if len(scratch) > 0 {
				R = rnd
				stats.LabelsSynced += int64(len(scratch))
				for _, f := range scratch {
					d := e.Get(f.V, f.Src)
					e.ApplySync(f.V, f.Src, d.Dist, d.Sigma, rnd)
				}
				for _, f := range scratch {
					e.RelaxOutLocal(f.V, f.Src)
				}
			}
			r.inlineRounds++
			continue
		}
		e.fwdRound = rnd
		rr := rnd
		r.runPhase(func(sh, w int) {
			flags := e.forwardFlagsShard(rr, sh, r.flags[sh][:0])
			r.flags[sh] = flags
			for _, f := range flags {
				d := e.Get(f.V, f.Src)
				e.ApplySync(f.V, f.Src, d.Dist, d.Sigma, rr)
			}
			r.pool.cells[w].staged += int64(len(flags))
			r.stageRelax(flags, r.relaxOut[sh])
		})
		if total := r.pool.flushStaged(); total > 0 {
			R = rnd
			stats.LabelsSynced += total
		}
		r.runPhase(func(sh, w int) { r.applyRelaxInbox(sh) })
		r.parallelRounds++
	}
	if e.PendingUnsent() {
		panic("core: parallel forward phase terminated with pending unsent labels")
	}
	return R
}

// backward runs the level-synchronous accumulation phase (Algorithm 5)
// and returns the number of backward rounds. The whole schedule is
// known up front (A_sv = R − τ_sv + 1), so the per-shard bucketing of
// StartBackward itself runs as one parallel phase.
func (r *Runner) backward(R int, stats *RunStats) int {
	e := r.e
	if r.pool == nil || e.g.NumVertices()*e.k <= inlineFrontierLimit {
		// Tiny batches build the schedule inline for the same reason
		// tiny rounds run inline: the phase barrier costs more than the
		// sweep.
		e.StartBackward(R)
	} else {
		e.totalR = R
		r.runPhase(func(sh, w int) { e.startBackwardShard(sh, R) })
	}
	back := e.BackwardRounds()
	var scratch []Flag
	for rnd := 1; rnd <= back; rnd++ {
		due := e.backDueCount(rnd)
		stats.LabelsSynced += int64(due)
		if r.pool == nil || due <= inlineFrontierLimit {
			scratch = e.BackwardFlags(rnd, scratch[:0])
			for _, f := range scratch {
				e.AccumulateIn(f.V, f.Src)
			}
			r.inlineRounds++
			continue
		}
		rr := rnd
		r.runPhase(func(sh, w int) {
			flags := e.backwardFlagsShard(rr, sh, r.flags[sh][:0])
			r.flags[sh] = flags
			r.stageDelta(flags, r.deltaOut[sh])
		})
		r.runPhase(func(sh, w int) { r.applyDeltaInbox(sh) })
		r.parallelRounds++
	}
	return back
}

// fold adds the batch's dependency values into the global scores,
// partitioned by the engine's contiguous ownership ranges.
func (r *Runner) fold(batch []uint32, scores []float64) {
	e := r.e
	if r.pool == nil || e.g.NumVertices()*e.k <= inlineFrontierLimit {
		foldRange(e, batch, scores, 0, e.g.NumVertices())
		return
	}
	r.runPhase(func(sh, w int) {
		lo, hi := e.shardRange(sh)
		foldRange(e, batch, scores, lo, hi)
	})
}

func foldRange(e *Engine, batch []uint32, scores []float64, lo, hi int) {
	for v := lo; v < hi; v++ {
		row := v * e.k
		for i, s := range batch {
			if e.dist[row+i] != graph.InfDist && uint32(v) != s {
				scores[v] += e.delta[row+i]
			}
		}
	}
}

// flushRunStats folds the current batch's scheduler counters into
// stats: Reset zeroes them, so a runner that lives across batches adds
// each batch's delta, never its lifetime totals. Call once per batch.
func (r *Runner) flushRunStats(stats *RunStats) {
	stats.InlineRounds += r.inlineRounds
	stats.ParallelRounds += r.parallelRounds
	for _, ws := range r.WorkerStats() {
		stats.Steals += ws.Steals
		stats.FailedSteals += ws.FailedSteals
	}
}

// RelaxAll performs the forward compute phase for a list of
// just-synchronized flags: every flag's out-edges are relaxed, exactly
// as calling RelaxOutLocal per flag would, with the work split over the
// pool when the list is large enough. The distributed runner hands it
// each round's synchronized set.
func (r *Runner) RelaxAll(flags []Flag) {
	e := r.e
	if r.pool == nil || len(flags) <= inlineFrontierLimit {
		r.inlineRounds++
		for _, f := range flags {
			e.RelaxOutLocal(f.V, f.Src)
		}
		return
	}
	n := len(flags)
	r.runPhase(func(chunk, w int) {
		r.stageRelax(flags[n*chunk/r.tasks:n*(chunk+1)/r.tasks], r.relaxOut[chunk])
	})
	r.runPhase(func(sh, w int) { r.applyRelaxInbox(sh) })
	r.parallelRounds++
}

// AccumulateAll performs the backward compute phase for a list of
// just-synchronized flags, equivalent to calling AccumulateIn per flag
// in order. Chunks stage δ contributions in flag order and targets
// apply them in chunk order, so every (u, s) sees its contributions in
// the exact sequence of the serial loop — δ stays bitwise identical to
// single-worker runs.
func (r *Runner) AccumulateAll(flags []Flag) {
	e := r.e
	if r.pool == nil || len(flags) <= inlineFrontierLimit {
		r.inlineRounds++
		for _, f := range flags {
			e.AccumulateIn(f.V, f.Src)
		}
		return
	}
	n := len(flags)
	r.runPhase(func(chunk, w int) {
		r.stageDelta(flags[n*chunk/r.tasks:n*(chunk+1)/r.tasks], r.deltaOut[chunk])
	})
	r.runPhase(func(sh, w int) { r.applyDeltaInbox(sh) })
	r.parallelRounds++
}
