// Package worklist holds the shared-memory schedulers of the BC
// baselines and the shared-memory MRBC loop:
//
//   - List, a chunked concurrent FIFO worklist in the style of the
//     Galois runtime, used by the Asynchronous Brandes BC baseline
//     (ABBC, Prountzos & Pingali) on unweighted graphs;
//   - Ordered, an OBIM-style priority worklist, used by weighted ABBC;
//   - RunOrdered, the one source- (or batch-) parallel loop: tasks
//     compute concurrently and retire in index order, so a sum over
//     tasks has the serial loop's bits. core.BC, brandes.Parallel,
//     brandes.WeightedBC, brandes.ApproximateBC and mfbc.BC run on it.
//
// List: producers push items into per-worker chunks; full chunks move
// to a shared queue served oldest first. The approximate-FIFO order
// matters: for label-correcting relaxations it keeps processing close
// to breadth-first order, which bounds re-relaxations — a LIFO order
// can re-relax long paths quadratically often on high-diameter graphs.
// The chunk size trades contention against load balance, matching the
// paper's per-input tuning (§5.2: 64 for road-europe, 8 for the rest).
package worklist

import (
	"sync"
	"sync/atomic"
)

// List is a concurrent multi-producer multi-consumer worklist of
// uint64 items with approximate-FIFO ordering.
type List struct {
	chunkSize int
	mu        sync.Mutex
	queue     [][]uint64
	head      int // index of the oldest unconsumed chunk in queue
	// pending counts items pushed but not yet popped, across shared
	// and local chunks; used for termination detection.
	pending int64
}

// New returns a worklist with the given chunk size.
func New(chunkSize int) *List {
	if chunkSize <= 0 {
		panic("worklist: chunk size must be positive")
	}
	return &List{chunkSize: chunkSize}
}

// Handle is a per-worker view of the list. Each worker goroutine must
// use its own Handle; Handles are not safe to share.
type Handle struct {
	l         *List
	local     []uint64 // push buffer, consumed FIFO via localHead
	localHead int
	pop       []uint64 // chunk being consumed, FIFO via popHead
	popHead   int
}

// Handle creates a new per-worker handle.
func (l *List) Handle() *Handle {
	return &Handle{l: l, local: make([]uint64, 0, l.chunkSize)}
}

// Push adds an item.
func (h *Handle) Push(item uint64) {
	atomic.AddInt64(&h.l.pending, 1)
	h.local = append(h.local, item)
	if len(h.local)-h.localHead >= h.l.chunkSize {
		h.flush()
	}
}

// Flush publishes any locally buffered items to the shared queue so
// other workers can take them.
func (h *Handle) Flush() {
	if len(h.local)-h.localHead > 0 {
		h.flush()
	}
}

func (h *Handle) flush() {
	chunk := append([]uint64(nil), h.local[h.localHead:]...)
	h.local = h.local[:0]
	h.localHead = 0
	h.l.mu.Lock()
	h.l.queue = append(h.l.queue, chunk)
	h.l.mu.Unlock()
}

// Pop removes an item in approximate FIFO order, preferring the
// worker's current chunk, then its local buffer, then the oldest
// shared chunk. ok is false when the worker found nothing; the list
// may still receive work from other workers afterwards, so use Empty
// for global termination.
func (h *Handle) Pop() (item uint64, ok bool) {
	if h.popHead < len(h.pop) {
		item = h.pop[h.popHead]
		h.popHead++
		atomic.AddInt64(&h.l.pending, -1)
		return item, true
	}
	if h.localHead < len(h.local) {
		item = h.local[h.localHead]
		h.localHead++
		if h.localHead == len(h.local) {
			h.local = h.local[:0]
			h.localHead = 0
		}
		atomic.AddInt64(&h.l.pending, -1)
		return item, true
	}
	h.l.mu.Lock()
	if h.l.head < len(h.l.queue) {
		h.pop = h.l.queue[h.l.head]
		h.popHead = 0
		h.l.queue[h.l.head] = nil
		h.l.head++
		// Compact the consumed prefix occasionally.
		if h.l.head > 64 && h.l.head*2 >= len(h.l.queue) {
			h.l.queue = append(h.l.queue[:0], h.l.queue[h.l.head:]...)
			h.l.head = 0
		}
	}
	h.l.mu.Unlock()
	if h.popHead < len(h.pop) {
		item = h.pop[h.popHead]
		h.popHead++
		atomic.AddInt64(&h.l.pending, -1)
		return item, true
	}
	return 0, false
}

// Empty reports whether no items remain anywhere (including other
// workers' local buffers). Only meaningful as a termination check once
// all workers have gone idle.
func (l *List) Empty() bool { return atomic.LoadInt64(&l.pending) == 0 }

// Pending returns the current pending-item count.
func (l *List) Pending() int64 { return atomic.LoadInt64(&l.pending) }
