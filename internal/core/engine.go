package core

import (
	"fmt"
	"math/bits"

	"mrbc/internal/bitset"
	"mrbc/internal/graph"
)

// This file implements the batched MRBC engine with the data structures
// of Section 4.3 laid out as structure-of-arrays (DESIGN.md §5, "Engine
// label layout"):
//
//   - Av: the per-source labels live in four flat slabs — dist, sigma,
//     delta, tau — indexed v·k+s, so one label read is one load and a
//     vertex's k distances share two cache lines at k = 32.
//   - Mv: the sorted distance -> source-set map of vertex v is the first
//     mapLen entries of the region [v·k, (v+1)·k) of mvDist/mvSet. At
//     k ≤ 64 an entry's source set is the mvSet word itself; above, it
//     names a slot of ⌈k/64⌉ words in the owning shard's slab.
//   - One 20-byte record per vertex carries the schedule: the number of
//     sent entries, the first unsent entry, the Mv length and the round
//     the vertex is enqueued for.
//
// The send round is derived, not stored ("we can derive the round in
// which the σsv is ready to be sent using dsv in the map, the current
// round number, and the number of already sent dependencies"): sends at
// a vertex are lexicographically monotone, so the first unsent entry
// sits at position sentCount+1 and is due in round dist + sentCount + 1.
// Because that round is known the moment an entry is created or
// improved, flag discovery is a round-indexed bucket scheduler (a
// calendar queue with lazy deletion), sharded by vertex ownership into
// contiguous ranges so the shared-memory runner can execute a round's
// compute phase on several goroutines without locks (see parallel.go).
//
// An engine is built once and Reset between batches. It holds one
// host's local view: internal/mrbcdist runs one per host with
// Gluon-style reductions between rounds, mrbc.go runs a single one over
// the whole graph with trivial reductions.

// SrcData is the (dist, sigma, delta) label triple of one (vertex,
// source) pair, as Get returns it.
type SrcData struct {
	Dist  uint32 // graph.InfDist when the source has not reached here
	Sigma float64
	Delta float64
}

// Flag identifies a (vertex, source-index) pair whose labels are
// scheduled for synchronization in the current round (the proxy
// synchronization rule of Section 4.3).
type Flag struct {
	V   uint32
	Src int
}

// vertexSched is the per-vertex schedule record. Per vertex,
// synchronizations happen in strictly increasing lexicographic
// (dist, source) order — the sent entries always form a lexicographic
// prefix of the ordered list — so the first unsent entry sits at
// position sentCount+1 and its scheduled round is dist + sentCount + 1,
// in O(1) per query instead of a map walk.
type vertexSched struct {
	sentCount int32
	fuDist    uint32 // first (lexicographically least) unsent entry
	fuSrc     int32  // -1 when no unsent entry exists
	mapLen    int32  // live Mv entries
	// sched is the forward round the vertex is currently enqueued for
	// (bucket mode), or -1 when it has no unsent entry / was collected
	// this round. Only the vertex's owner mutates it.
	sched int32
}

var idleVertex = vertexSched{fuSrc: -1, sched: -1}

// noteUnsent updates the first-unsent pointer after entry (s, d) was
// inserted or lowered while unsent.
func (rec *vertexSched) noteUnsent(s int, d uint32) {
	if rec.fuSrc == int32(s) {
		// The tracked entry itself moved (distance improvements only
		// lower it); it remains the minimum.
		rec.fuDist = d
		return
	}
	if rec.fuSrc < 0 || d < rec.fuDist || (d == rec.fuDist && int32(s) < rec.fuSrc) {
		rec.fuDist, rec.fuSrc = d, int32(s)
	}
}

// engineShard holds one ownership shard's scheduler state. A shard
// owns a contiguous vertex range (see shardOf/shardRange) and each
// shard's state is touched by exactly one worker per parallel phase, so
// nothing here needs locks or atomics; the trailing pad keeps the
// frequently-written pending counter of adjacent shards on different
// cache lines.
type engineShard struct {
	// buckets[r-1] holds vertices tentatively due in forward round r.
	// Deletion is lazy: a vertex is re-appended when its due round
	// changes, and collection skips copies whose round no longer
	// matches the vertex's sched.
	buckets [][]uint32
	// freeBuckets recycles the slices of collected rounds.
	freeBuckets [][]uint32
	// backByRound[r-1] holds the Algorithm 5 flags of backward round r as
	// pair indices v·k+s, ascending, carved out of backArena — 4 bytes per
	// reached pair; backCounts is the counting pass's scratch.
	backByRound [][]uint32
	backArena   []uint32
	backCounts  []int32
	// nextHint is a verified lower bound on the shard's next non-empty
	// bucket round: every bucket strictly before it is empty. Lowered on
	// insert, advanced by NextForwardRound's scan, it makes the per-round
	// scan amortized O(1) per shard instead of O(round span) — the cost
	// that would otherwise grow with the shard count.
	nextHint int32
	// setWords is the slab of Mv source sets for batches above 64
	// sources: slot i is words [i·wps, (i+1)·wps). An emptied set's slot
	// returns through freeSlots with all its words zero.
	setWords  []uint64
	setSlots  int
	freeSlots []uint32
	// pending counts (v,s) pairs inserted but not yet synchronized.
	pending int64
	_       [56]byte
}

// setSlabChunk is the number of set slots a shard's slab grows by.
const setSlabChunk = 256

func (sh *engineShard) allocSlot(wps int) int {
	if n := len(sh.freeSlots); n > 0 {
		slot := sh.freeSlots[n-1]
		sh.freeSlots = sh.freeSlots[:n-1]
		return int(slot)
	}
	slot := sh.setSlots
	sh.setSlots++
	if sh.setSlots*wps > len(sh.setWords) {
		sh.setWords = append(sh.setWords, make([]uint64, setSlabChunk*wps)...)
	}
	return slot
}

// reset empties the shard's scheduler and set slab, keeping every
// slice's capacity. wps is the slot width the slab was used at.
func (sh *engineShard) reset(wps int) {
	for i, b := range sh.buckets {
		if cap(b) > 0 {
			sh.freeBuckets = append(sh.freeBuckets, b[:0])
		}
		sh.buckets[i] = nil
	}
	sh.buckets = sh.buckets[:0]
	sh.backByRound = sh.backByRound[:0]
	sh.nextHint = 0
	clear(sh.setWords[:sh.setSlots*wps])
	sh.setSlots = 0
	sh.freeSlots = sh.freeSlots[:0]
	sh.pending = 0
}

// Engine is one host's MRBC state over a local graph.
type Engine struct {
	g    *graph.Graph
	n    int
	k    int // current batch size, and the stride of every label slab
	kmax int // construction-time batch size: the largest k Reset accepts
	wps  int // words per source set at the current stride: ⌈k/64⌉

	// Label slabs, indexed v·k+s. Each has length n·k and capacity
	// n·kmax. dist is built with the engine; the rest are made on the
	// first label write (allocLabels), which a run pays once.
	dist   []uint32 // graph.InfDist: not reached
	sigma  []float64
	delta  []float64
	tau    []int32  // round the pair's labels were synchronized (finalized)
	mvDist []uint32 // Mv distances, ascending within a vertex's region
	mvSet  []uint64 // Mv source sets: the word itself (wps == 1) or a slab slot
	sent   []uint64 // v·wps + s/64: the pair has been synchronized
	vs     []vertexSched

	scan     bool          // legacy O(n)-scan flag discovery (baseline)
	shards   []engineShard // ownership shards; len >= 1
	fwdRound int           // last collected forward round, for schedule sanity checks
	totalR   int           // forward termination round, set by StartBackward
}

// EngineOpts configures optional Engine behavior.
type EngineOpts struct {
	// Shards partitions vertices by ownership into contiguous ranges so
	// that the per-round compute phase can run on a worker pool with
	// every label write, scheduler move, and pending-counter update
	// staying inside the owning shard. 0 or 1 means a single shard
	// (single-threaded use, e.g. one engine per simulated host).
	// ParallelShards picks the fan-out the parallel runtime uses.
	Shards int
	// Scan selects the seed O(n)-per-round vertex scan for forward
	// flag discovery instead of the bucket scheduler. Kept as the
	// baseline for benchmarks and cross-engine equivalence tests.
	Scan bool
}

// NewEngine creates an engine for k sources over the local graph g with
// default options (bucket scheduler, one shard). The graph's in-edge
// view is required for the backward phase and is built eagerly.
func NewEngine(g *graph.Graph, k int) *Engine {
	return NewEngineOpts(g, k, EngineOpts{})
}

// NewEngineOpts creates an engine with explicit scheduler options. k is
// the largest batch the engine will run; Reset selects smaller ones.
func NewEngineOpts(g *graph.Graph, k int, opts EngineOpts) *Engine {
	if k <= 0 {
		panic("core: batch size must be positive")
	}
	g.EnsureInEdges()
	n := g.NumVertices()
	if int64(n)*int64(k) >= 1<<32 {
		// The backward schedule names a pair by its 4-byte slab index; the
		// label slabs of such an engine would be over 150 GB.
		panic(fmt.Sprintf("core: %d vertices × %d sources exceed 2^32 (vertex, source) pairs", n, k))
	}
	shards := opts.Shards
	if shards < 1 {
		shards = 1
	}
	if shards > n && n > 0 {
		shards = n
	}
	e := &Engine{
		g:      g,
		n:      n,
		kmax:   k,
		dist:   make([]uint32, n*k),
		sent:   make([]uint64, n*bitset.WordsFor(k)),
		vs:     make([]vertexSched, n),
		scan:   opts.Scan,
		shards: make([]engineShard, shards),
	}
	e.blank()
	e.setStride(k)
	return e
}

// blank writes the construction value over dist and the vertex records.
func (e *Engine) blank() {
	for i := range e.dist {
		e.dist[i] = graph.InfDist
	}
	for v := range e.vs {
		e.vs[v] = idleVertex
	}
}

// setStride points the label slabs at batch size k.
func (e *Engine) setStride(k int) {
	e.k, e.wps = k, bitset.WordsFor(k)
	e.dist = e.dist[:e.n*k]
	if e.sigma != nil {
		e.sigma, e.delta, e.tau = e.sigma[:e.n*k], e.delta[:e.n*k], e.tau[:e.n*k]
		e.mvDist, e.mvSet = e.mvDist[:e.n*k], e.mvSet[:e.n*k]
	}
}

// allocLabels makes the slabs construction deferred. Every entry point
// that can create the engine's first finite entry calls it; they all run
// before any parallel phase has work to do.
func (e *Engine) allocLabels() {
	full, used := e.n*e.kmax, e.n*e.k
	e.sigma = make([]float64, used, full)
	e.delta = make([]float64, used, full)
	e.tau = make([]int32, used, full)
	e.mvDist = make([]uint32, used, full)
	e.mvSet = make([]uint64, used, full)
}

// Reset returns the engine to the state NewEngineOpts(g, k, opts) would
// build, for a batch of k ≤ the construction-time batch size, keeping
// every slab and scheduler slice. It is valid at any point of a batch,
// including one abandoned mid-forward or mid-backward.
func (e *Engine) Reset(k int) {
	if k <= 0 || k > e.kmax {
		panic(fmt.Sprintf("core: Reset to batch size %d outside [1,%d]", k, e.kmax))
	}
	e.blank()
	clear(e.sigma)
	clear(e.delta)
	clear(e.tau)
	clear(e.sent[:e.n*e.wps])
	for i := range e.shards {
		e.shards[i].reset(e.wps)
	}
	e.fwdRound, e.totalR = 0, 0
	e.setStride(k)
}

// K returns the batch size.
func (e *Engine) K() int { return e.k }

// Graph returns the engine's local graph.
func (e *Engine) Graph() *graph.Graph { return e.g }

// NumShards returns the number of vertex-ownership shards.
func (e *Engine) NumShards() int { return len(e.shards) }

// idx returns the slab index of (v, s). Every public entry point goes
// through it: in a flat slab an out-of-range source would silently alias
// the next vertex's labels.
func (e *Engine) idx(v uint32, s int) int {
	if uint(s) >= uint(e.k) {
		// An error value, not a formatted string, so that idx stays
		// within the inlining budget of the one-line accessors.
		panic(sourceRangeError{s, e.k})
	}
	return int(v)*e.k + s
}

type sourceRangeError struct{ s, k int }

func (err sourceRangeError) Error() string {
	return fmt.Sprintf("core: source index %d out of range [0,%d)", err.s, err.k)
}

// Get returns the current labels of (v, s).
func (e *Engine) Get(v uint32, s int) SrcData {
	i := e.idx(v, s)
	d := SrcData{Dist: e.dist[i]}
	// An unreached pair's σ and δ are zero — and before the first label
	// write their slabs do not exist yet.
	if d.Dist != graph.InfDist {
		d.Sigma, d.Delta = e.sigma[i], e.delta[i]
	}
	return d
}

// ParallelShards is the ownership shard count runner-driven engines
// use: a fixed fan-out (clamped to n) chosen independently of the
// worker count, so the canonical shard-concatenation order — and with
// it every float64 summation order — is the same for 1 worker as for
// 16. 64 shards over-partition every worker count we target (≤16),
// giving the stealing scheduler slack to rebalance skewed frontiers.
func ParallelShards(n int) int {
	const target = 64
	if n < target {
		if n < 1 {
			return 1
		}
		return n
	}
	return target
}

// shardOf maps a vertex to its owning shard. Shards are contiguous
// ranges (v·S/n), not interleaved residues: adjacent vertices share a
// shard, so one worker's label writes stay in contiguous slab memory
// (no false sharing between workers), and per-shard vertex order
// concatenated in shard order equals global vertex order.
func (e *Engine) shardOf(v uint32) int {
	if len(e.shards) == 1 {
		return 0
	}
	return int(uint64(v) * uint64(len(e.shards)) / uint64(e.n))
}

// shardRange returns the contiguous vertex range [lo, hi) owned by a
// shard: the inverse of shardOf.
func (e *Engine) shardRange(shard int) (lo, hi int) {
	n := e.n
	s := len(e.shards)
	return (shard*n + s - 1) / s, ((shard+1)*n + s - 1) / s
}

// lowerBound returns the first index of ascending a holding a value >= d.
func lowerBound(a []uint32, d uint32) int {
	lo, hi := 0, len(a)
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); a[mid] < d {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// setOf returns the words of the Mv source set stored at entry ent.
func (e *Engine) setOf(sh *engineShard, ent int) []uint64 {
	if e.wps == 1 {
		return e.mvSet[ent : ent+1]
	}
	off := int(e.mvSet[ent]) * e.wps
	return sh.setWords[off : off+e.wps]
}

// mvAdd files source s under distance d in v's ordered map Mv. A vertex
// holds at most k distinct distances, so its region never overflows.
func (e *Engine) mvAdd(sh *engineShard, v uint32, s int, d uint32) {
	rec := &e.vs[v]
	base, n := int(v)*e.k, int(rec.mapLen)
	dists := e.mvDist[base : base+n]
	// Relaxations mostly reach a vertex at nondecreasing distances, so
	// the entry is usually at (or appends past) the tail.
	i := n
	if n > 0 && dists[n-1] >= d {
		i = n - 1
		if dists[i] > d {
			i = lowerBound(dists, d)
		}
		if dists[i] == d {
			e.setOf(sh, base+i)[s>>6] |= 1 << (uint(s) & 63)
			return
		}
	}
	rec.mapLen++
	dists = e.mvDist[base : base+n+1]
	sets := e.mvSet[base : base+n+1]
	copy(dists[i+1:], dists[i:n])
	copy(sets[i+1:], sets[i:n])
	dists[i] = d
	if e.wps == 1 {
		sets[i] = 1 << uint(s)
		return
	}
	slot := sh.allocSlot(e.wps)
	sets[i] = uint64(slot)
	sh.setWords[slot*e.wps+s>>6] |= 1 << (uint(s) & 63)
}

// mvRemove takes source s out of distance d's set in v's Mv, dropping
// the entry when its set empties.
func (e *Engine) mvRemove(sh *engineShard, v uint32, s int, d uint32) {
	rec := &e.vs[v]
	base, n := int(v)*e.k, int(rec.mapLen)
	dists := e.mvDist[base : base+n]
	i := n - 1
	if i < 0 || dists[i] != d { // tail fast path, else binary search
		i = lowerBound(dists, d)
	}
	var set []uint64
	if i < n && dists[i] == d {
		set = e.setOf(sh, base+i)
	}
	bit := uint64(1) << (uint(s) & 63)
	if set == nil || set[s>>6]&bit == 0 {
		panic(fmt.Sprintf("core: Mv entry missing (v=%d, d=%d, s=%d)", v, d, s))
	}
	set[s>>6] &^= bit
	for _, w := range set {
		if w != 0 {
			return
		}
	}
	if e.wps > 1 {
		sh.freeSlots = append(sh.freeSlots, uint32(e.mvSet[base+i]))
	}
	sets := e.mvSet[base : base+n]
	copy(dists[i:], dists[i+1:])
	copy(sets[i:], sets[i+1:])
	rec.mapLen--
}

// advanceFU finds v's new first unsent entry after the previous one was
// synchronized. Sends are lexicographically monotone — every entry
// below the one just sent is already sent — so the scan resumes at the
// distance of the previous first-unsent entry instead of position 0,
// and within each distance the first unsent source is one
// set-difference away.
func (e *Engine) advanceFU(sh *engineShard, v uint32) {
	rec := &e.vs[v]
	base, n := int(v)*e.k, int(rec.mapLen)
	dists := e.mvDist[base : base+n]
	sent := e.sent[int(v)*e.wps : (int(v)+1)*e.wps]
	for i := lowerBound(dists, rec.fuDist); i < n; i++ {
		for j, w := range e.setOf(sh, base+i) {
			if w &^= sent[j]; w != 0 {
				rec.fuDist, rec.fuSrc = dists[i], int32(j<<6+bits.TrailingZeros64(w))
				return
			}
		}
	}
	rec.fuSrc = -1
}

// isSent reports whether (v, s) has been synchronized.
func (e *Engine) isSent(v uint32, s int) bool {
	return e.sent[int(v)*e.wps+s>>6]&(1<<(uint(s)&63)) != 0
}

// insert creates the unsent entry (v, s) at distance d with σ partial
// sigma and schedules it.
func (e *Engine) insert(v uint32, s, i int, d uint32, sigma float64) {
	sh := &e.shards[e.shardOf(v)]
	e.dist[i] = d
	e.sigma[i] = sigma
	e.mvAdd(sh, v, s, d)
	e.vs[v].noteUnsent(s, d)
	sh.pending++
	e.reschedule(sh, v)
}

// improve lowers the unsent entry (v, s) from distance cur to d,
// replacing its σ partial (partials at the stale distance are
// discarded), and reschedules it.
func (e *Engine) improve(v uint32, s, i int, cur, d uint32, sigma float64) {
	sh := &e.shards[e.shardOf(v)]
	e.mvRemove(sh, v, s, cur)
	e.mvAdd(sh, v, s, d)
	e.dist[i] = d
	e.sigma[i] = sigma
	e.vs[v].noteUnsent(s, d)
	e.reschedule(sh, v)
}

// reschedule records v's current due round in the bucket scheduler of
// its shard sh after a mutation that may have changed it. Stale copies left in old
// buckets (lazy deletion) are skipped at collection because the
// vertex's sched no longer names their round.
func (e *Engine) reschedule(sh *engineShard, v uint32) {
	if e.scan {
		return
	}
	rec := &e.vs[v]
	if rec.fuSrc < 0 {
		rec.sched = -1
		return
	}
	due := int32(rec.fuDist) + rec.sentCount + 1
	if rec.sched == due {
		return
	}
	// A due round equal to the current round is legitimate: a master
	// merging mirror partials during arbitration touches the very
	// entry it synchronizes moments later, which reschedules it past
	// the round. Strictly past rounds mean the schedule derivation
	// broke.
	if int(due) < e.fwdRound {
		panic(fmt.Sprintf("core: vertex %d scheduled into past round %d (current %d)", v, due, e.fwdRound))
	}
	rec.sched = due
	if due < sh.nextHint {
		sh.nextHint = due
	}
	for len(sh.buckets) < int(due) {
		sh.buckets = append(sh.buckets, nil)
	}
	b := sh.buckets[due-1]
	if b == nil {
		if n := len(sh.freeBuckets); n > 0 { // recycle a collected round's slice
			b = sh.freeBuckets[n-1]
			sh.freeBuckets = sh.freeBuckets[:n-1]
		}
	}
	sh.buckets[due-1] = append(b, v)
}

// InitSource marks local vertex v as source s. withSigma controls the
// initial σ: the master proxy carries σ=1 while mirror proxies carry 0
// so the cross-host sum reduction counts the single empty path once.
func (e *Engine) InitSource(v uint32, s int, withSigma bool) {
	i := e.idx(v, s)
	if e.dist[i] != graph.InfDist {
		panic(fmt.Sprintf("core: vertex %d already initialized for source %d", v, s))
	}
	if e.sigma == nil {
		e.allocLabels()
	}
	sigma := 0.0
	if withSigma {
		sigma = 1
	}
	e.insert(v, s, i, 0, sigma)
}

// nextDue returns the scheduled round and source of v's first unsent
// entry, or (-1, -1) if all entries are sent. Scheduled round =
// distance + lexicographic position (1-based), the send rule of
// Algorithm 3; the position is sentCount+1 (see vertexSched).
func (e *Engine) nextDue(v uint32) (round int, src int) {
	rec := &e.vs[v]
	if rec.fuSrc < 0 {
		return -1, -1
	}
	return int(rec.fuDist) + int(rec.sentCount) + 1, int(rec.fuSrc)
}

// ForwardFlags appends to dst the (vertex, source) pairs scheduled to
// synchronize in round r under this host's local view, implementing the
// proxy synchronization rule. At most one flag per vertex per round.
//
// In bucket mode collection consumes round r's buckets: call it (or
// forwardFlagsShard for every shard) exactly once per round, in
// nondecreasing round order.
func (e *Engine) ForwardFlags(r int, dst []Flag) []Flag {
	if e.scan {
		for v := range e.vs {
			due, src := e.nextDue(uint32(v))
			if due == r {
				dst = append(dst, Flag{V: uint32(v), Src: src})
			} else if due > 0 && due < r {
				panic(fmt.Sprintf("core: vertex %d missed its scheduled round %d (now %d)", v, due, r))
			}
		}
		return dst
	}
	e.fwdRound = r
	for sh := range e.shards {
		dst = e.forwardFlagsShard(r, sh, dst)
	}
	return dst
}

// forwardFlagsShard collects the round-r flags of one ownership shard,
// consuming the shard's round-r bucket. Safe to call concurrently for
// distinct shards; e.fwdRound must have been set to r beforehand.
func (e *Engine) forwardFlagsShard(r, shard int, dst []Flag) []Flag {
	sh := &e.shards[shard]
	if r > len(sh.buckets) {
		return dst
	}
	for _, v := range sh.buckets[r-1] {
		if e.vs[v].sched != int32(r) {
			continue // stale lazily-deleted copy
		}
		due, src := e.nextDue(v)
		if due != r {
			panic(fmt.Sprintf("core: scheduler desync: vertex %d in bucket %d but due %d", v, r, due))
		}
		e.vs[v].sched = -1
		dst = append(dst, Flag{V: v, Src: src})
	}
	if b := sh.buckets[r-1]; cap(b) > 0 {
		sh.freeBuckets = append(sh.freeBuckets, b[:0])
	}
	sh.buckets[r-1] = nil
	return dst
}

// NextForwardRound returns the next round after r in which any vertex
// may be due, letting the caller jump over empty rounds. A scan-mode
// engine advances one round at a time; a bucketed engine returns the
// round of the next non-empty bucket (which may hold only stale
// entries, yielding zero flags), or -1 when nothing is scheduled.
func (e *Engine) NextForwardRound(r int) int {
	if e.scan {
		return r + 1
	}
	best := -1
	for i := range e.shards {
		sh := &e.shards[i]
		h := int(sh.nextHint)
		if h < r+1 {
			h = r + 1
		}
		for h <= len(sh.buckets) && len(sh.buckets[h-1]) == 0 {
			h++
		}
		sh.nextHint = int32(h)
		if h <= len(sh.buckets) && (best < 0 || h < best) {
			best = h
		}
	}
	return best
}

// dueEstimate returns an upper bound on the number of flags forward
// round r can yield: the total length of the shards' round-r buckets,
// stale lazily-deleted copies included. The parallel runtime's inline
// gate consumes it; being a pure function of scheduler state, it is
// identical across worker counts.
func (e *Engine) dueEstimate(r int) int {
	total := 0
	for i := range e.shards {
		if b := e.shards[i].buckets; r <= len(b) {
			total += len(b[r-1])
		}
	}
	return total
}

// ApplySync installs the reduced-and-broadcast final labels for (v, s)
// synchronized in round r, marking the entry sent. Safe to call on
// hosts that had no local entry, a stale entry, or the final entry.
func (e *Engine) ApplySync(v uint32, s int, dist uint32, sigma float64, r int) {
	i := e.idx(v, s)
	if e.sigma == nil {
		e.allocLabels()
	}
	sh := &e.shards[e.shardOf(v)]
	switch cur := e.dist[i]; {
	case cur == graph.InfDist:
		e.mvAdd(sh, v, s, dist)
		sh.pending++
	case cur < dist:
		panic(fmt.Sprintf("core: sync for (%d,%d) with dist %d worse than local %d", v, s, dist, cur))
	case cur > dist:
		e.mvRemove(sh, v, s, cur)
		e.mvAdd(sh, v, s, dist)
	}
	e.dist[i] = dist
	e.sigma[i] = sigma
	if e.isSent(v, s) {
		panic(fmt.Sprintf("core: (%d,%d) synchronized twice", v, s))
	}
	e.sent[int(v)*e.wps+s>>6] |= 1 << (uint(s) & 63)
	e.tau[i] = int32(r)
	rec := &e.vs[v]
	rec.sentCount++
	if rec.fuSrc == int32(s) {
		e.advanceFU(sh, v)
	}
	sh.pending--
	e.reschedule(sh, v)
}

// applyRelax folds one relaxation contribution (distance cand, σ-part
// sigma) from a just-synchronized in-neighbor into w's labels: the
// target-vertex half of RelaxOutLocal (Steps 13-17 of Algorithm 3). It
// touches only w's shard, so workers owning disjoint shards may call
// it concurrently. s is in range: it comes from a validated flag.
func (e *Engine) applyRelax(w uint32, s int, cand uint32, sigma float64) {
	i := int(w)*e.k + s
	cur := e.dist[i]
	switch {
	case cur == graph.InfDist:
		e.insert(w, s, i, cand, sigma)
	case cur == cand:
		if e.isSent(w, s) {
			// A σ contribution arriving after (w,s) synchronized
			// would mean a predecessor finalized after its
			// successor, violating the pipelining invariant.
			panic(fmt.Sprintf("core: late sigma contribution to sent entry (%d,%d)", w, s))
		}
		e.sigma[i] += sigma
	case cur > cand:
		if e.isSent(w, s) {
			panic(fmt.Sprintf("core: improvement for sent entry (%d,%d)", w, s))
		}
		e.improve(w, s, i, cur, cand, sigma)
	}
	// cur < cand: the contribution is to a non-shortest path.
}

// RelaxOutLocal performs the compute phase for a synchronized (v, s):
// it relaxes every locally-owned out-edge of v, accumulating distance
// and σ partials into the targets' proxies (Steps 11-17 of Algorithm 3,
// as local label updates per Section 4.2). It allocates nothing.
func (e *Engine) RelaxOutLocal(v uint32, s int) {
	i := e.idx(v, s)
	cand, sigma := e.dist[i]+1, e.sigma[i]
	for _, w := range e.g.OutNeighbors(v) {
		e.applyRelax(w, s, cand, sigma)
	}
}

// MergePartial folds another proxy's (dist, σ-partial) for (v, s) into
// this host's value: the reduction step a master performs on incoming
// mirror partials (min on distance; σ partials sum at the minimum
// distance and are discarded at larger distances).
func (e *Engine) MergePartial(v uint32, s int, dist uint32, sigma float64) {
	i := e.idx(v, s)
	if e.sigma == nil {
		e.allocLabels()
	}
	cur := e.dist[i]
	switch {
	case cur == graph.InfDist:
		e.insert(v, s, i, dist, sigma)
	case cur == dist:
		if e.isSent(v, s) {
			panic(fmt.Sprintf("core: partial for already-synchronized (%d,%d)", v, s))
		}
		e.sigma[i] += sigma
	case cur > dist:
		if e.isSent(v, s) {
			panic(fmt.Sprintf("core: improvement for already-synchronized (%d,%d)", v, s))
		}
		e.improve(v, s, i, cur, dist, sigma)
	}
	// cur < dist: the incoming partial is at a non-minimal distance and
	// contributes nothing.
}

// AddDeltaPartial folds another proxy's δ partial into this host's
// value (sum reduction of the backward phase).
func (e *Engine) AddDeltaPartial(v uint32, s int, delta float64) {
	e.delta[e.idx(v, s)] += delta
}

// PendingUnsent reports whether any finite-distance entry on this host
// has not yet been synchronized; used for global termination detection
// (Lemma 8).
func (e *Engine) PendingUnsent() bool {
	for i := range e.shards {
		if e.shards[i].pending > 0 {
			return true
		}
	}
	return false
}

// StartBackward switches to the accumulation phase (Algorithm 5) given
// the forward termination round R. The whole backward schedule is
// known up front (source s synchronizes in round Asv = R - τsv + 1),
// so it is bucketed by round once, per ownership shard; BackwardFlags
// then costs O(|flags|) per round.
func (e *Engine) StartBackward(R int) {
	e.totalR = R
	for sh := range e.shards {
		e.startBackwardShard(sh, R)
	}
}

// startBackwardShard buckets one ownership shard's backward flags by
// round: the level-synchronous sweep's per-shard setup. It touches only
// the shard's own vertex range and bucket state, so the parallel
// runtime calls it concurrently for distinct shards (with e.totalR set
// by the caller beforehand). The shard's slab range is scanned in
// ascending pair index, so each round's flags are ascending (vertex,
// source) within the shard — and, ranges being contiguous, across
// shards in shard order.
func (e *Engine) startBackwardShard(shard, R int) {
	lo, hi := e.shardRange(shard)
	sh := &e.shards[shard]
	sh.backByRound = sh.backByRound[:0]
	if e.sigma == nil {
		return // no label was ever written
	}
	dist, tau := e.dist[lo*e.k:hi*e.k], e.tau[lo*e.k:hi*e.k]
	// Counting pass: exact per-round sizes, so the shard's flags live in
	// one arena instead of append-grown round slices.
	counts := sh.backCounts[:0]
	total := 0
	for i, d := range dist {
		if d == graph.InfDist {
			continue
		}
		r := R - int(tau[i]) + 1
		for len(counts) < r {
			counts = append(counts, 0)
		}
		counts[r-1]++
		total++
	}
	sh.backCounts = counts
	if cap(sh.backArena) < total {
		// Headroom: batches reach slightly different pair counts, and an
		// arena re-made at every new maximum costs the sum of the maxima.
		sh.backArena = make([]uint32, total+total/8)
	}
	arena := sh.backArena[:total]
	off := 0
	for _, c := range counts {
		sh.backByRound = append(sh.backByRound, arena[off:off:off+int(c)])
		off += int(c)
	}
	for i, d := range dist {
		if d != graph.InfDist {
			r := R - int(tau[i]) + 1
			sh.backByRound[r-1] = append(sh.backByRound[r-1], uint32(lo*e.k+i))
		}
	}
}

// backDueCount returns the exact number of backward round-r flags
// across all shards.
func (e *Engine) backDueCount(r int) int {
	total := 0
	for i := range e.shards {
		if b := e.shards[i].backByRound; r >= 1 && r <= len(b) {
			total += len(b[r-1])
		}
	}
	return total
}

// BackwardFlags appends the (vertex, source) pairs whose dependency
// value synchronizes in backward round r.
func (e *Engine) BackwardFlags(r int, dst []Flag) []Flag {
	for sh := range e.shards {
		dst = e.backwardFlagsShard(r, sh, dst)
	}
	return dst
}

// backwardFlagsShard appends one shard's backward round-r flags. Safe
// to call concurrently for distinct shards.
func (e *Engine) backwardFlagsShard(r, shard int, dst []Flag) []Flag {
	sh := &e.shards[shard]
	if r < 1 || r > len(sh.backByRound) {
		return dst
	}
	k := uint32(e.k)
	for _, p := range sh.backByRound[r-1] {
		dst = append(dst, Flag{V: p / k, Src: int(p % k)})
	}
	return dst
}

// BackwardRounds returns the number of rounds the backward phase needs:
// the largest Asv across this host.
func (e *Engine) BackwardRounds() int {
	max := 0
	for i := range e.shards {
		if b := len(e.shards[i].backByRound); b > max {
			max = b
		}
	}
	return max
}

// DeltaPartial returns this host's current δ partial for (v, s).
func (e *Engine) DeltaPartial(v uint32, s int) float64 { return e.delta[e.idx(v, s)] }

// ApplyDeltaSync installs the reduced final dependency value for (v,s).
func (e *Engine) ApplyDeltaSync(v uint32, s int, delta float64) {
	e.delta[e.idx(v, s)] = delta
}

// AccumulateIn performs the backward compute phase for a synchronized
// (v, s): it pushes v's dependency contribution m = (1+δ)/σ along every
// locally-owned in-edge to predecessors in the shortest-path DAG
// (Steps 7-9 of Algorithm 5).
func (e *Engine) AccumulateIn(v uint32, s int) {
	i := e.idx(v, s)
	if e.sigma[i] == 0 {
		panic(fmt.Sprintf("core: zero sigma at (%d,%d) during accumulation", v, s))
	}
	m := (1 + e.delta[i]) / e.sigma[i]
	dv := e.dist[i]
	for _, u := range e.g.InNeighbors(v) {
		j := int(u)*e.k + s
		if du := e.dist[j]; du+1 == dv && du != graph.InfDist {
			e.delta[j] += e.sigma[j] * m
		}
	}
}
