package mrbcdist

// Software-pipelined batch execution (Options.PipelineDepth > 1).
//
// The serial loop in RunChecked finishes batch b's backward pass
// before batch b+1's forward pass starts, so every exchange's wire
// wait sits on the critical path. Here up to `depth` batches run as
// coroutines over the one shared cluster: a batch packs and sends an
// exchange (dgalois.BeginExchange), hands the cluster to the next
// batch while its bytes are on the wire, and unpacks
// (PendingExchange.Complete) when its turn comes back. The compute the
// other batches do in between hides the wire wait — that hidden time
// is what dgalois.Stats.HiddenTime and the exchange events' HiddenNs
// report.
//
// Determinism. Output must be bitwise identical to the serial loop,
// which pins three things:
//
//   - Cluster operations are serialized by a turnstile: exactly one
//     batch at a time may touch the cluster, and the rotation evolves
//     as a pure function of the batch schedule (each batch's round
//     counts come out of cluster.AllReduce, so every SPMD process
//     computes the same rotation and therefore issues the same global
//     operation sequence — which is what keeps the TCP transport's
//     lock-step all-reduce and per-exchange identifier matching
//     sound).
//   - Within a batch, operations run in exactly the serial order; the
//     only transformation is that an exchange's unpack is deferred
//     across other batches' turns. Apply order inside an exchange is
//     unchanged (sender-ordered unpack), so engine state evolution per
//     batch is identical to a serial run of that batch.
//   - Batches retire in index order: the floating-point score fold and
//     the batch/worker summary events of batch b happen only after
//     every batch < b retired, replaying the serial fold order
//     exactly.
//
// Exchange identifiers come from per-batch streams
// (dgalois.SetStream), so concurrently-open exchanges of different
// batches occupy disjoint identifier spaces on the wire and in
// transport buffers, and the reliable transport's seq/ack machinery
// stays per-stream.

import (
	"sync"

	"mrbc/internal/dgalois"
	"mrbc/internal/gluon"
	"mrbc/internal/obs"
	"mrbc/internal/partition"
)

// turnstile serializes cluster access across batch goroutines. order
// holds the batch indices currently in rotation; order[pos] owns the
// cluster. All rotation changes happen while holding the turn, so the
// schedule is deterministic.
type turnstile struct {
	mu    sync.Mutex
	turn  *sync.Cond
	order []int
	pos   int
	// failed flips once, when any batch panics; cause keeps the first
	// panic value so the coordinator can re-raise it after the
	// goroutines drain. Waiters unblock by panicking pipeAbort.
	failed bool
	cause  any
}

// pipeAbort is the secondary-panic sentinel: raised out of acquire on
// every batch goroutine once one of them failed, so they all unwind
// (running their cleanup defers) without overwriting the first cause.
type pipeAbort struct{}

func newTurnstile(order []int) *turnstile {
	t := &turnstile{order: order}
	t.turn = sync.NewCond(&t.mu)
	return t
}

// acquire blocks until it is batch bi's turn (or the pipeline failed,
// which it reports by panicking pipeAbort).
func (t *turnstile) acquire(bi int) {
	t.mu.Lock()
	for !t.failed && t.order[t.pos] != bi {
		t.turn.Wait()
	}
	failed := t.failed
	t.mu.Unlock()
	if failed {
		panic(pipeAbort{})
	}
}

// yield passes the turn to the next batch in rotation.
func (t *turnstile) yield() {
	t.mu.Lock()
	t.pos = (t.pos + 1) % len(t.order)
	t.turn.Broadcast()
	t.mu.Unlock()
}

// leave retires the calling batch's rotation slot (it must hold the
// turn). replacement >= 0 installs that batch in the slot and hands it
// the turn; -1 shrinks the rotation and passes the turn onward.
func (t *turnstile) leave(replacement int) {
	t.mu.Lock()
	if replacement >= 0 {
		t.order[t.pos] = replacement
	} else {
		t.order = append(t.order[:t.pos], t.order[t.pos+1:]...)
		if len(t.order) > 0 {
			t.pos %= len(t.order)
		} else {
			t.pos = 0
		}
	}
	t.turn.Broadcast()
	t.mu.Unlock()
}

// fail records the first panic cause and unblocks every waiter.
func (t *turnstile) fail(cause any) {
	t.mu.Lock()
	if !t.failed {
		t.failed = true
		t.cause = cause
	}
	t.turn.Broadcast()
	t.mu.Unlock()
}

// pipeRunner owns one pipelined run. The retire-in-order fields are
// touched only while holding the turn (plus the post-Wait cleanup,
// which wg.Wait orders after every goroutine).
type pipeRunner struct {
	cluster *dgalois.Cluster
	topo    *gluon.Topology
	pt      *partition.Partitioning
	pool    *statePool
	sources []uint32
	scores  []float64
	opts    Options
	prog    progressGauges
	t       *turnstile
	wg      sync.WaitGroup

	nBatches   int
	nextStart  int                // next batch index to enter the rotation
	retireNext int                // next batch index to fold into scores
	finished   map[int]*pipeBatch // done but awaiting in-order retirement
}

// pipeBatch is one batch's coroutine state.
type pipeBatch struct {
	r         *pipeRunner
	bi        int
	batch     []uint32
	states    []*hostState
	fwd, back int
}

// runPipelined executes the batch loop software-pipelined at the given
// depth (≥ 2, already clamped to the batch count). Panics — fault
// aborts included — propagate to the caller exactly as the serial
// loop's would, after every batch goroutine unwound.
func runPipelined(cluster *dgalois.Cluster, topo *gluon.Topology, pt *partition.Partitioning, pool *statePool, sources []uint32, scores []float64, opts Options, depth int, prog progressGauges) {
	nBatches := (len(sources) + opts.BatchSize - 1) / opts.BatchSize
	order := make([]int, depth)
	for i := range order {
		order[i] = i
	}
	r := &pipeRunner{
		cluster:   cluster,
		topo:      topo,
		pt:        pt,
		pool:      pool,
		sources:   sources,
		scores:    scores,
		opts:      opts,
		prog:      prog,
		t:         newTurnstile(order),
		nBatches:  nBatches,
		nextStart: depth,
		finished:  make(map[int]*pipeBatch, depth),
	}
	for bi := 0; bi < depth; bi++ {
		r.spawn(bi)
	}
	r.wg.Wait()
	cluster.SetStream(-1)
	if r.t.cause != nil {
		// Re-raise the first failure on the coordinator goroutine: a
		// fault abort unwinds to dgalois.Capture, anything else is a bug
		// and propagates as the original panic value.
		panic(r.t.cause)
	}
}

// spawn starts batch bi's coroutine. The recover funnel sends any
// panic — a fault abort, a pipeAbort echo, or a genuine bug — through
// turnstile.fail, which keeps only the first cause.
func (r *pipeRunner) spawn(bi int) {
	start := bi * r.opts.BatchSize
	end := start + r.opts.BatchSize
	if end > len(r.sources) {
		end = len(r.sources)
	}
	b := &pipeBatch{r: r, bi: bi, batch: r.sources[start:end]}
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		defer func() {
			if v := recover(); v != nil {
				r.t.fail(v)
			}
		}()
		b.run()
	}()
}

// take blocks until it is this batch's turn, then routes the cluster's
// exchange identifiers and event tags onto the batch's stream.
func (b *pipeBatch) take() {
	b.r.t.acquire(b.bi)
	b.r.cluster.SetStream(b.bi)
}

// await is the software-pipelining step: hand the turn to the next
// batch while the detached exchange's bytes are on the wire, complete
// the exchange when the turn returns. Under a fault plan the exchange
// already ran synchronously inside BeginExchange (Complete is a no-op)
// but the turn still rotates, so the global operation order stays the
// same deterministic function of the batch schedule.
func (b *pipeBatch) await(p *dgalois.PendingExchange) {
	b.r.t.yield()
	b.take()
	p.Complete()
}

// run executes one batch start to finish: the exact operation sequence
// of runBatch, with each Exchange split into BeginExchange / yield /
// Complete. See the package comment at the top of this file for why
// this preserves bitwise determinism.
func (b *pipeBatch) run() {
	r := b.r
	cluster, topo, opts := r.cluster, r.topo, r.opts
	tr := opts.Trace
	b.take()
	r.prog.batch.Set(int64(b.bi))
	b.states = r.pool.makeStates(cluster, r.pt, b.batch, opts)

	// ---- Forward phase. ----
	R := 0
	for fr := 1; ; fr++ {
		cluster.BeginRound()
		var activity int64
		cluster.Compute(forwardFlagsFn(b.states, fr, &activity))
		activity = cluster.AllReduce(activity, gluon.ReduceSum)
		r.prog.round.Set(int64(fr))
		r.prog.frontier.Set(activity)
		if activity == 0 {
			break
		}
		R = fr
		pack, unpack := fwdReduceExchange(b.states, topo)
		b.await(cluster.BeginExchange(pack, unpack))
		cluster.Compute(fwdArbitrateFn(b.states, fr, tr, b.bi))
		pack, unpack = fwdBroadcastExchange(b.states, topo, fr)
		b.await(cluster.BeginExchange(pack, unpack))
		cluster.Compute(relaxFn(b.states, opts.Sync))
		if opts.Sync == CandidateSync {
			cluster.Compute(candGroupFn(b.states))
			pack, unpack = candReduceExchange(b.states, topo)
			b.await(cluster.BeginExchange(pack, unpack))
			cluster.Compute(candMergeFn(b.states))
			pack, unpack = candBroadcastExchange(b.states, topo)
			b.await(cluster.BeginExchange(pack, unpack))
		}
	}

	// ---- Backward phase. ----
	cluster.Compute(func(h int) { b.states[h].engine.StartBackward(R) })
	maxBack := int(cluster.AllReduce(int64(localBackwardRounds(b.states)), gluon.ReduceMax))
	r.prog.backward.Set(1)
	for br := 1; br <= maxBack; br++ {
		cluster.BeginRound()
		r.prog.round.Set(int64(br))
		cluster.Compute(backwardFlagsFn(b.states, br))
		pack, unpack := backReduceExchange(b.states, topo)
		b.await(cluster.BeginExchange(pack, unpack))
		cluster.Compute(backUnionFn(b.states, br, tr, b.bi))
		pack, unpack = backBroadcastExchange(b.states, topo)
		b.await(cluster.BeginExchange(pack, unpack))
		cluster.Compute(accumulateFn(b.states))
	}

	b.fwd, b.back = R, maxBack
	b.finish()
}

// finish runs in the batch's final turn: stash the completed batch,
// retire every batch whose predecessors are all retired (in index
// order — the serial score-fold and summary-event order), release the
// batch's identifier stream, and hand its rotation slot to the next
// unstarted batch.
func (b *pipeBatch) finish() {
	r := b.r
	r.finished[b.bi] = b
	for {
		d := r.finished[r.retireNext]
		if d == nil {
			break
		}
		delete(r.finished, r.retireNext)
		r.retireNext++
		r.retire(d)
	}
	r.cluster.EndStream(b.bi)
	next := -1
	if r.nextStart < r.nBatches {
		next = r.nextStart
		r.nextStart++
		r.spawn(next)
	}
	r.t.leave(next)
}

// retire emits batch d's summary and worker events and folds its
// scores — the per-batch epilogue of the serial loop, byte for byte.
func (r *pipeRunner) retire(d *pipeBatch) {
	if tr := r.opts.Trace; tr.Enabled() {
		tr.Emit(obs.Event{Kind: obs.KindBatch, Batch: int32(d.bi), Host: -1,
			K: int32(len(d.batch)), FwdRounds: int32(d.fwd), BackRounds: int32(d.back)})
	}
	emitWorkerStats(d.states, r.opts, d.bi)
	foldScores(d.states, d.batch, r.scores)
	r.pool.release(d.states)
}
