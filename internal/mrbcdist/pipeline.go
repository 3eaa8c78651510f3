package mrbcdist

// Software-pipelined batch execution (Options.PipelineDepth > 1): one
// round body, two ways to wait.
//
// The serial loop in RunChecked finishes batch b's backward pass
// before batch b+1's forward pass starts, so every exchange's wire
// wait sits on the critical path. Here up to `depth` batches run the
// same batchRun body (mrbcdist.go) as coroutines over the one shared
// cluster; the difference is confined to batchRun.exchange, which packs
// and sends (dgalois.BeginSync), hands the cluster to the next
// batch while the bytes are on the wire, and unpacks
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
//     counts come out of its reduce exchanges' sums, the same on every
//     SPMD process, so all compute the same rotation and issue the same
//     operation sequence — which keeps the TCP transport's per-exchange
//     identifier matching sound).
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
// Exchange identifiers come from the cluster's one counter: the
// operation sequence is the same on every SPMD process, so the n-th
// exchange begun names the same exchange everywhere, whichever batch
// began it. dgalois.SetBatch only tags the events a batch's turn emits.

import "sync"

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
	*job
	t  *turnstile
	wg sync.WaitGroup

	nBatches   int
	nextStart  int               // next batch index to enter the rotation
	retireNext int               // next batch index to fold into scores
	finished   map[int]*batchRun // done but awaiting in-order retirement
}

// runPipelined executes the batch loop software-pipelined at the given
// depth (≥ 2, already clamped to the batch count). Panics — fault
// aborts included — propagate to the caller exactly as the serial
// loop's would, after every batch goroutine unwound.
func runPipelined(j *job, depth int) {
	order := make([]int, depth)
	for i := range order {
		order[i] = i
	}
	r := &pipeRunner{
		job:       j,
		t:         newTurnstile(order),
		nBatches:  (len(j.sources) + j.opts.BatchSize - 1) / j.opts.BatchSize,
		nextStart: depth,
		finished:  make(map[int]*batchRun, depth),
	}
	for bi := 0; bi < depth; bi++ {
		r.spawn(bi)
	}
	r.wg.Wait()
	r.cluster.SetBatch(-1)
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
	b := r.newBatch(bi, r)
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		defer func() {
			if v := recover(); v != nil {
				r.t.fail(v)
			}
		}()
		r.take(bi)
		b.run()
		r.finish(b)
	}()
}

// take blocks until it is batch bi's turn, then tags the cluster's
// events with the batch.
func (r *pipeRunner) take(bi int) {
	r.t.acquire(bi)
	r.cluster.SetBatch(bi)
}

// finish runs in batch b's final turn: stash the completed batch,
// retire every batch whose predecessors are all retired (in index
// order — the serial score-fold and summary-event order), and hand its
// rotation slot to the next unstarted batch.
func (r *pipeRunner) finish(b *batchRun) {
	r.finished[b.bi] = b
	for {
		d := r.finished[r.retireNext]
		if d == nil {
			break
		}
		delete(r.finished, r.retireNext)
		r.retireNext++
		d.retire()
	}
	next := -1
	if r.nextStart < r.nBatches {
		next = r.nextStart
		r.nextStart++
		r.spawn(next)
	}
	r.t.leave(next)
}
