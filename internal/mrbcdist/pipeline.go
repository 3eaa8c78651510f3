package mrbcdist

// Software-pipelined batch execution (Options.PipelineDepth > 1): one
// round body, two ways to wait.
//
// The serial loop in RunChecked finishes batch b's backward pass
// before batch b+1's forward pass starts, so every exchange's wire
// wait sits on the critical path. Here up to `depth` batches run the
// same batchRun body (mrbcdist.go) as coroutines over the host's one
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
//   - Cluster operations are serialized by a baton, the turn: exactly
//     one batch at a time holds it and may touch the cluster, and it
//     passes from batch to batch in a rotation that evolves as a pure
//     function of the batch schedule (each batch's round counts come out
//     of its reduce exchanges' sums, the same on every SPMD process, so
//     all compute the same rotation and issue the same operation
//     sequence — which keeps the TCP transport's per-exchange identifier
//     matching sound).
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

import "runtime"

// pipeRunner is one pipelined run's rotation. Only the batch holding the
// turn reads or writes it, and the turn passes over the batches' wake
// channels, whose send orders the giver's writes before the taker's
// reads: no lock guards it.
type pipeRunner struct {
	*job
	ring      []*batchRun // batches started and not finished; ring[pos] holds the turn
	pos       int
	next      int         // the next batch index to enter the rotation
	unretired []*batchRun // batches started and not retired, in index order
	end       chan any    // the run's outcome: nil, or the first panic value
}

// runPipelined executes the batch loop software-pipelined at the given
// depth (≥ 2, already clamped to the batch count). A panic in a batch —
// a fault abort included — reaches the caller as the serial loop's
// would: a fault abort unwinds to dgalois.Capture, anything else is a
// bug and propagates as the original panic value.
func runPipelined(j *job, depth int) {
	r := &pipeRunner{job: j, end: make(chan any, 1)}
	for r.next < depth {
		r.ring = append(r.ring, r.start())
	}
	r.ring[0].wake <- struct{}{}
	v := <-r.end
	r.cluster.SetBatch(-1)
	if v != nil {
		panic(v)
	}
}

// start makes batch r.next and its goroutine, which parks until the
// turn reaches it. A panic on the goroutine goes to fail.
func (r *pipeRunner) start() *batchRun {
	b := r.newBatch(r.next, r)
	b.wake = make(chan struct{}, 1)
	r.next++
	r.unretired = append(r.unretired, b)
	go func() {
		defer func() {
			if v := recover(); v != nil {
				r.fail(b, v)
			}
		}()
		r.wait(b)
		b.run()
		r.finish(b)
	}()
	return b
}

// wait parks b until the turn reaches it, then tags the cluster's events
// with the batch. A closed channel means another batch failed, and b's
// goroutine exits without touching the cluster again.
func (r *pipeRunner) wait(b *batchRun) {
	if _, ok := <-b.wake; !ok {
		runtime.Goexit()
	}
	r.cluster.SetBatch(b.bi)
}

// yield hands the turn straight to the next batch in the rotation and
// waits for it to come back; a rotation of one keeps the turn.
func (r *pipeRunner) yield(b *batchRun) {
	r.pos = (r.pos + 1) % len(r.ring)
	if next := r.ring[r.pos]; next != b {
		next.wake <- struct{}{}
		r.wait(b)
	}
}

// finish runs in batch b's last turn: retire every finished batch whose
// predecessors all retired (in index order — the serial score-fold and
// summary-event order), then give b's slot to the next batch index,
// which takes the turn at once, or drop the slot and pass the turn on.
// The last batch to finish reports the run's end.
func (r *pipeRunner) finish(b *batchRun) {
	b.done = true
	for len(r.unretired) > 0 && r.unretired[0].done {
		r.unretired[0].retire()
		r.unretired = r.unretired[1:]
	}
	if r.next*r.opts.BatchSize < len(r.sources) {
		r.ring[r.pos] = r.start()
	} else {
		r.ring = append(r.ring[:r.pos], r.ring[r.pos+1:]...)
		if len(r.ring) == 0 {
			r.end <- nil
			return
		}
		r.pos %= len(r.ring)
	}
	r.ring[r.pos].wake <- struct{}{}
}

// fail runs on the goroutine of batch b, which panicked holding the
// turn: it releases every parked batch, whose goroutine then exits, and
// hands the panic value to runPipelined.
func (r *pipeRunner) fail(b *batchRun, v any) {
	for _, o := range r.ring {
		if o != b {
			close(o.wake)
		}
	}
	r.end <- v
}
