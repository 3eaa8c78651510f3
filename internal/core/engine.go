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
//   - Av: the per-source labels live in three flat slabs — dist, sigma,
//     delta — indexed v·k+s, so one label read is one load and a
//     vertex's k distances share two cache lines at k = 32.
//   - Mv is not stored. The paper's sorted distance -> source-set map
//     serves one query, the lexicographically least unsent (dist,
//     source) entry of a vertex; here that entry is kept in the vertex
//     record and, once sent, found again by a resumable scan of v's
//     unsent bit row (⌈k/64⌉ words) and v's distance row (advanceFU).
//   - One 16-byte record per vertex carries the schedule: the number of
//     sent entries, the first unsent entry and the round the vertex is
//     enqueued for.
//
// The send round is derived, not stored ("we can derive the round in
// which the σsv is ready to be sent using dsv in the map, the current
// round number, and the number of already sent dependencies"): sends at
// a vertex are lexicographically monotone, so the first unsent entry
// sits at position sentCount+1 and is due in round dist + sentCount + 1.
// Because that round is known the moment an entry is created or
// improved, flag discovery is a round-indexed bucket scheduler (a
// calendar queue with lazy deletion).
//
// τsv is not stored either. Algorithm 5 re-sends (v, s) in backward
// round R − τsv + 1, the forward synchronizations replayed in reverse
// round order, so the backward schedule is the forward pass's sync log
// read back to front, each round's run put in pair order.
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
	Src int32
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
	// sched is the forward round the vertex is currently enqueued for,
	// or -1 when it has no unsent entry / was collected this round.
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

// Engine is one host's MRBC state over a local graph.
type Engine struct {
	g    *graph.Graph
	n    int
	k    int // current batch size, and the stride of every label slab
	kmax int // construction-time batch size: the largest k Reset accepts
	wps  int // words per bit row at the current stride: ⌈k/64⌉

	// Label slabs, indexed v·k+s. Each has length n·k and capacity
	// n·kmax. dist is built with the engine; the rest are made on the
	// first label write (allocLabels), which a run pays once.
	dist  []uint32 // graph.InfDist: not reached
	sigma []float64
	delta []float64
	// unsent holds bit rows, v·wps + s/64, made with the labels for
	// kmax: the pair is reached and not yet synchronized. A reached pair
	// whose bit is clear has been synchronized (sent).
	unsent []uint64
	vs     []vertexSched

	// buckets[r-1] holds vertices tentatively due in forward round r, as
	// a chain of fixed-size chunks in append order. Deletion is lazy: a
	// vertex is re-appended when its due round changes, and collection
	// skips copies whose round no longer matches the vertex's sched.
	buckets []bucket
	// freeChunks is the pool chunks come from and collected rounds'
	// chunks go back to: a bucket never moves once written.
	freeChunks *chunk
	// nextHint is a verified lower bound on the next non-empty bucket
	// round: every bucket strictly before it is empty. Lowered on
	// insert, advanced by NextForwardRound's scan, it makes that scan
	// amortized O(1) per round instead of O(round span).
	nextHint int32

	// syncLog holds the pair index v·k+s of every synchronization in the
	// order ApplySync saw them, made with the labels at capacity n·kmax:
	// a pair synchronizes once. logEnd[τ-1] is the end of forward round
	// τ's run. StartBackward sorts each run in place, and backward round
	// R − τ + 1 then reads round τ's run (Algorithm 5's Asv).
	syncLog []uint32
	logEnd  []int32
	// backR is the forward termination round StartBackward was given;
	// backRounds the backward rounds it derived.
	backR, backRounds int
	// sortSlot and sortMark are StartBackward's sort buffers: per vertex, the
	// pair a run holds for it, and the vertices a run holds.
	sortSlot []uint32
	sortMark []uint64
	// pending counts (v,s) pairs inserted but not yet synchronized.
	pending int64

	fwdRound int // last collected forward round, for schedule sanity checks

	// The pad keeps pending and fwdRound, written every round, off the
	// cache line that holds the head of the next object in the heap. The
	// engines of an in-process run's hosts are built side by side in one
	// size class; without it, one host's counter writes invalidate the
	// line another host reads its slab headers from (road_mem_h4 ran
	// 7 % slower with two engines adjacent).
	_ [64]byte
}

// NewEngine creates an engine for k sources over the local graph g. k is
// the largest batch the engine will run; Reset selects smaller ones. The
// graph's in-edge view is required for the backward phase and is built
// eagerly.
func NewEngine(g *graph.Graph, k int) *Engine {
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
	e := &Engine{
		g:    g,
		n:    n,
		kmax: k,
		dist: make([]uint32, n*k),
		vs:   make([]vertexSched, n),
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
		e.sigma, e.delta = e.sigma[:e.n*k], e.delta[:e.n*k]
	}
}

// allocLabels makes the slabs construction deferred. Every entry point
// that can create the engine's first finite entry calls it.
func (e *Engine) allocLabels() {
	full, used := e.n*e.kmax, e.n*e.k
	e.sigma = make([]float64, used, full)
	e.delta = make([]float64, used, full)
	e.unsent = make([]uint64, e.n*bitset.WordsFor(e.kmax))
	e.syncLog = make([]uint32, 0, full)
	e.sortSlot = make([]uint32, e.n)
	e.sortMark = make([]uint64, bitset.WordsFor(e.n))
}

// Reset returns the engine to the state NewEngine(g, k) would build, for
// a batch of k ≤ the construction-time batch size, keeping every slab
// and scheduler slice. It is valid at any point of a batch,
// including one abandoned mid-forward or mid-backward.
func (e *Engine) Reset(k int) {
	if k <= 0 || k > e.kmax {
		panic(fmt.Sprintf("core: Reset to batch size %d outside [1,%d]", k, e.kmax))
	}
	e.blank()
	clear(e.sigma)
	clear(e.delta)
	clear(e.unsent)
	for i := range e.buckets {
		e.buckets[i].release(&e.freeChunks)
	}
	e.buckets = e.buckets[:0]
	e.syncLog = e.syncLog[:0]
	e.logEnd = e.logEnd[:0]
	e.backR, e.backRounds = 0, 0
	clear(e.sortMark)
	e.nextHint = 0
	e.pending = 0
	e.fwdRound = 0
	e.setStride(k)
}

// K returns the batch size.
func (e *Engine) K() int { return e.k }

// Graph returns the engine's local graph.
func (e *Engine) Graph() *graph.Graph { return e.g }

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

// advanceFU finds v's new first unsent entry after the previous one,
// (fuDist, fuSrc), was synchronized. That entry was the least unsent
// one, so every unsent entry left is at fuDist with a larger source, or
// at a larger distance: the scan first resumes at fuSrc+1 for the rest
// of the distance level, and only when the level is exhausted takes the
// lexicographic minimum over the whole row. Sources of one level are
// sent in ascending order, so the resumes of a level together read the
// row once.
func (e *Engine) advanceFU(v uint32) {
	rec := &e.vs[v]
	unsent := e.unsent[int(v)*e.wps : (int(v)+1)*e.wps]
	dist := e.dist[int(v)*e.k : (int(v)+1)*e.k]
	d, s := rec.fuDist, int(rec.fuSrc)
	for j := s >> 6; j < len(unsent); j++ {
		w := unsent[j]
		if j == s>>6 {
			w &= ^uint64(0) << (uint(s) & 63) // s itself is no longer unsent
		}
		for ; w != 0; w &= w - 1 {
			if t := j<<6 + bits.TrailingZeros64(w); dist[t] == d {
				rec.fuSrc = int32(t)
				return
			}
		}
	}
	rec.fuDist, rec.fuSrc = graph.InfDist, -1
	for j, w := range unsent {
		for ; w != 0; w &= w - 1 {
			t := j<<6 + bits.TrailingZeros64(w)
			if dist[t] < rec.fuDist {
				rec.fuDist, rec.fuSrc = dist[t], int32(t)
			}
		}
	}
}

// isUnsent reports whether (v, s)'s unsent bit is set. For a reached
// pair that is: not yet synchronized.
func (e *Engine) isUnsent(v uint32, s int) bool {
	return e.unsent[int(v)*e.wps+s>>6]&(1<<(uint(s)&63)) != 0
}

// insert creates the unsent entry (v, s) at distance d with σ partial
// sigma and schedules it.
func (e *Engine) insert(v uint32, s, i int, d uint32, sigma float64) {
	e.dist[i] = d
	e.sigma[i] = sigma
	e.unsent[int(v)*e.wps+s>>6] |= 1 << (uint(s) & 63)
	e.vs[v].noteUnsent(s, d)
	e.pending++
	e.reschedule(v)
}

// improve lowers the unsent entry (v, s) to distance d, replacing its
// σ partial (partials at the stale distance are discarded), and
// reschedules it.
func (e *Engine) improve(v uint32, s, i int, d uint32, sigma float64) {
	e.dist[i] = d
	e.sigma[i] = sigma
	e.vs[v].noteUnsent(s, d)
	e.reschedule(v)
}

// reschedule records v's current due round in the bucket scheduler
// after a mutation that may have changed it. Stale copies left in old
// buckets (lazy deletion) are skipped at collection because the
// vertex's sched no longer names their round.
func (e *Engine) reschedule(v uint32) {
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
	if due < e.nextHint {
		e.nextHint = due
	}
	for len(e.buckets) < int(due) {
		e.buckets = append(e.buckets, bucket{})
	}
	e.buckets[due-1].push(v, &e.freeChunks)
}

// chunkLen is the number of vertices one calendar chunk holds.
const chunkLen = 120

// chunk is one fixed-size block of a bucket's chain, or of the free
// pool (linked through next).
type chunk struct {
	next *chunk
	n    int32
	v    [chunkLen]uint32
}

// bucket is one forward round's calendar entry: a chain of chunks, head
// first, in append order.
type bucket struct{ head, tail *chunk }

// push appends v to b, taking a chunk from the pool when the tail is
// full.
func (b *bucket) push(v uint32, pool **chunk) {
	c := b.tail
	if c == nil || c.n == chunkLen {
		next := *pool
		if next != nil {
			*pool = next.next
			next.next, next.n = nil, 0
		} else {
			next = new(chunk)
		}
		if c == nil {
			b.head = next
		} else {
			c.next = next
		}
		b.tail, c = next, next
	}
	c.v[c.n] = v
	c.n++
}

// release hands b's chunks back to the pool and empties b.
func (b *bucket) release(pool **chunk) {
	if b.head != nil {
		b.tail.next = *pool
		*pool = b.head
	}
	*b = bucket{}
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
func (e *Engine) nextDue(v uint32) (round int, src int32) {
	rec := &e.vs[v]
	if rec.fuSrc < 0 {
		return -1, -1
	}
	return int(rec.fuDist) + int(rec.sentCount) + 1, rec.fuSrc
}

// ForwardFlags appends to dst the (vertex, source) pairs scheduled to
// synchronize in round r under this host's local view, implementing the
// proxy synchronization rule. At most one flag per vertex per round, in
// the order the vertices were scheduled.
//
// Collection consumes round r's bucket: call it exactly once per round,
// in nondecreasing round order.
func (e *Engine) ForwardFlags(r int, dst []Flag) []Flag {
	e.fwdRound = r
	if r > len(e.buckets) {
		return dst
	}
	b := &e.buckets[r-1]
	for c := b.head; c != nil; c = c.next {
		for _, v := range c.v[:c.n] {
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
	}
	b.release(&e.freeChunks)
	return dst
}

// NextForwardRound returns the round of the next non-empty bucket after
// r, letting the caller jump over empty rounds, or -1 when nothing is
// scheduled. The bucket may hold only stale entries, yielding zero
// flags.
func (e *Engine) NextForwardRound(r int) int {
	h := max(int(e.nextHint), r+1)
	for h <= len(e.buckets) && e.buckets[h-1].head == nil {
		h++
	}
	e.nextHint = int32(h)
	if h > len(e.buckets) {
		return -1
	}
	return h
}

// ApplySync installs the reduced-and-broadcast final labels for (v, s)
// synchronized in round r, marking the entry sent and logging it for
// the backward schedule. Safe to call on hosts that had no local entry,
// a stale entry, or the final entry. Rounds never decrease.
func (e *Engine) ApplySync(v uint32, s int, dist uint32, sigma float64, r int) {
	i := e.idx(v, s)
	if e.sigma == nil {
		e.allocLabels()
	}
	cur := e.dist[i]
	if cur < dist {
		panic(fmt.Sprintf("core: sync for (%d,%d) with dist %d worse than local %d", v, s, dist, cur))
	}
	if dist == graph.InfDist {
		panic(fmt.Sprintf("core: sync for (%d,%d) without a distance", v, s))
	}
	w, bit := int(v)*e.wps+s>>6, uint64(1)<<(uint(s)&63)
	if e.unsent[w]&bit != 0 {
		e.unsent[w] &^= bit
		e.pending--
	} else if cur != graph.InfDist {
		panic(fmt.Sprintf("core: (%d,%d) synchronized twice", v, s))
	}
	if r < len(e.logEnd) || r < 1 {
		panic(fmt.Sprintf("core: sync of (%d,%d) in round %d after round %d", v, s, r, len(e.logEnd)))
	}
	for len(e.logEnd) < r {
		e.logEnd = append(e.logEnd, int32(len(e.syncLog)))
	}
	e.syncLog = append(e.syncLog, uint32(i))
	e.logEnd[r-1]++
	e.dist[i] = dist
	e.sigma[i] = sigma
	rec := &e.vs[v]
	rec.sentCount++
	if rec.fuSrc == int32(s) {
		e.advanceFU(v)
	}
	e.reschedule(v)
}

// applyRelax folds one relaxation contribution (distance cand, σ-part
// sigma) from a just-synchronized in-neighbor into w's labels: the
// target-vertex half of RelaxOutLocal (Steps 13-17 of Algorithm 3). s
// is in range: it comes from a validated flag.
func (e *Engine) applyRelax(w uint32, s int, cand uint32, sigma float64) {
	i := int(w)*e.k + s
	cur := e.dist[i]
	switch {
	case cur == graph.InfDist:
		e.insert(w, s, i, cand, sigma)
	case cur == cand:
		if !e.isUnsent(w, s) {
			// A σ contribution arriving after (w,s) synchronized
			// would mean a predecessor finalized after its
			// successor, violating the pipelining invariant.
			panic(fmt.Sprintf("core: late sigma contribution to sent entry (%d,%d)", w, s))
		}
		e.sigma[i] += sigma
	case cur > cand:
		if !e.isUnsent(w, s) {
			panic(fmt.Sprintf("core: improvement for sent entry (%d,%d)", w, s))
		}
		e.improve(w, s, i, cand, sigma)
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
		if !e.isUnsent(v, s) {
			panic(fmt.Sprintf("core: partial for already-synchronized (%d,%d)", v, s))
		}
		e.sigma[i] += sigma
	case cur > dist:
		if !e.isUnsent(v, s) {
			panic(fmt.Sprintf("core: improvement for already-synchronized (%d,%d)", v, s))
		}
		e.improve(v, s, i, dist, sigma)
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
func (e *Engine) PendingUnsent() bool { return e.pending > 0 }

// StartBackward switches to the accumulation phase (Algorithm 5) given
// the forward termination round R. The whole backward schedule is
// known up front: a pair synchronized in forward round τ is due in
// backward round Asv = R − τ + 1, so backward round r replays forward
// round R − r + 1's run of the sync log. Each run is put in ascending
// pair index — (vertex, source) — order once, here; BackwardFlags then
// costs O(|flags|) per round.
func (e *Engine) StartBackward(R int) {
	if len(e.logEnd) > R {
		panic(fmt.Sprintf("core: backward phase after %d forward rounds, but a pair synchronized in round %d", R, len(e.logEnd)))
	}
	e.backR, e.backRounds = R, 0
	start := int32(0)
	for t, end := range e.logEnd {
		if end > start && e.backRounds == 0 {
			e.backRounds = R - t // the earliest round τ = t+1 is due last
		}
		e.sortRun(e.syncLog[start:end], t+1)
		start = end
	}
}

// sortRun puts forward round tau's run of the sync log in ascending pair
// order in O(len(run) + span/64), span the run's vertex range. A round
// synchronizes at most one source per vertex (the proxy synchronization
// rule), so a vertex bitset orders the run and sortSlot recalls each
// vertex's pair.
func (e *Engine) sortRun(run []uint32, tau int) {
	k := uint32(e.k)
	lo, hi := uint32(e.n), uint32(0)
	for _, p := range run {
		v := p / k
		w, bit := v>>6, uint64(1)<<(v&63)
		if e.sortMark[w]&bit != 0 {
			clear(e.sortMark)
			panic(fmt.Sprintf("core: vertex %d synchronized twice in round %d", v, tau))
		}
		e.sortMark[w] |= bit
		e.sortSlot[v] = p
		lo, hi = min(lo, v), max(hi, v)
	}
	i := 0
	for w := lo >> 6; w <= hi>>6; w++ {
		for m := e.sortMark[w]; m != 0; m &= m - 1 {
			run[i] = e.sortSlot[w<<6+uint32(bits.TrailingZeros64(m))]
			i++
		}
		e.sortMark[w] = 0
	}
}

// BackwardFlags appends the (vertex, source) pairs whose dependency
// value synchronizes in backward round r, in ascending (vertex, source)
// order.
func (e *Engine) BackwardFlags(r int, dst []Flag) []Flag {
	tau := e.backR - r + 1
	if r < 1 || r > e.backRounds || tau > len(e.logEnd) {
		return dst
	}
	start := int32(0)
	if tau > 1 {
		start = e.logEnd[tau-2]
	}
	k := uint32(e.k)
	for _, p := range e.syncLog[start:e.logEnd[tau-1]] {
		dst = append(dst, Flag{V: p / k, Src: int32(p % k)})
	}
	return dst
}

// BackwardRounds returns the number of rounds the backward phase needs:
// the largest Asv across this host.
func (e *Engine) BackwardRounds() int { return e.backRounds }

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
