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
	tau   []int32 // round the pair's labels were synchronized (finalized)
	// Bit rows, v·wps + s/64, made for kmax: the pair has been
	// synchronized (sent), or is reached and not yet synchronized
	// (unsent, made with the labels).
	sent   []uint64
	unsent []uint64
	vs     []vertexSched

	// buckets[r-1] holds vertices tentatively due in forward round r.
	// Deletion is lazy: a vertex is re-appended when its due round
	// changes, and collection skips copies whose round no longer
	// matches the vertex's sched.
	buckets [][]uint32
	// freeBuckets recycles the slices of collected rounds.
	freeBuckets [][]uint32
	// nextHint is a verified lower bound on the next non-empty bucket
	// round: every bucket strictly before it is empty. Lowered on
	// insert, advanced by NextForwardRound's scan, it makes that scan
	// amortized O(1) per round instead of O(round span).
	nextHint int32
	// backByRound[r-1] holds the Algorithm 5 flags of backward round r as
	// pair indices v·k+s, ascending, carved out of backArena — 4 bytes per
	// reached pair; backCounts is the counting pass's scratch.
	backByRound [][]uint32
	backArena   []uint32
	backCounts  []int32
	// pending counts (v,s) pairs inserted but not yet synchronized.
	pending int64

	fwdRound int // last collected forward round, for schedule sanity checks
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
		sent: make([]uint64, n*bitset.WordsFor(k)),
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
		e.sigma, e.delta, e.tau = e.sigma[:e.n*k], e.delta[:e.n*k], e.tau[:e.n*k]
	}
}

// allocLabels makes the slabs construction deferred. Every entry point
// that can create the engine's first finite entry calls it.
func (e *Engine) allocLabels() {
	full, used := e.n*e.kmax, e.n*e.k
	e.sigma = make([]float64, used, full)
	e.delta = make([]float64, used, full)
	e.tau = make([]int32, used, full)
	e.unsent = make([]uint64, len(e.sent))
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
	clear(e.tau)
	clear(e.sent[:e.n*e.wps])
	clear(e.unsent)
	for i, b := range e.buckets {
		if cap(b) > 0 {
			e.freeBuckets = append(e.freeBuckets, b[:0])
		}
		e.buckets[i] = nil
	}
	e.buckets = e.buckets[:0]
	e.backByRound = e.backByRound[:0]
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

// isSent reports whether (v, s) has been synchronized.
func (e *Engine) isSent(v uint32, s int) bool {
	return e.sent[int(v)*e.wps+s>>6]&(1<<(uint(s)&63)) != 0
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
		e.buckets = append(e.buckets, nil)
	}
	b := e.buckets[due-1]
	if b == nil {
		if n := len(e.freeBuckets); n > 0 { // recycle a collected round's slice
			b = e.freeBuckets[n-1]
			e.freeBuckets = e.freeBuckets[:n-1]
		}
	}
	e.buckets[due-1] = append(b, v)
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
	for _, v := range e.buckets[r-1] {
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
	if b := e.buckets[r-1]; cap(b) > 0 {
		e.freeBuckets = append(e.freeBuckets, b[:0])
	}
	e.buckets[r-1] = nil
	return dst
}

// NextForwardRound returns the round of the next non-empty bucket after
// r, letting the caller jump over empty rounds, or -1 when nothing is
// scheduled. The bucket may hold only stale entries, yielding zero
// flags.
func (e *Engine) NextForwardRound(r int) int {
	h := max(int(e.nextHint), r+1)
	for h <= len(e.buckets) && len(e.buckets[h-1]) == 0 {
		h++
	}
	e.nextHint = int32(h)
	if h > len(e.buckets) {
		return -1
	}
	return h
}

// ApplySync installs the reduced-and-broadcast final labels for (v, s)
// synchronized in round r, marking the entry sent. Safe to call on
// hosts that had no local entry, a stale entry, or the final entry.
func (e *Engine) ApplySync(v uint32, s int, dist uint32, sigma float64, r int) {
	i := e.idx(v, s)
	if e.sigma == nil {
		e.allocLabels()
	}
	if cur := e.dist[i]; cur < dist {
		panic(fmt.Sprintf("core: sync for (%d,%d) with dist %d worse than local %d", v, s, dist, cur))
	}
	e.dist[i] = dist
	e.sigma[i] = sigma
	if e.isSent(v, s) {
		panic(fmt.Sprintf("core: (%d,%d) synchronized twice", v, s))
	}
	w, bit := int(v)*e.wps+s>>6, uint64(1)<<(uint(s)&63)
	if e.unsent[w]&bit != 0 {
		e.unsent[w] &^= bit
		e.pending--
	}
	e.sent[w] |= bit
	e.tau[i] = int32(r)
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
		if e.isSent(v, s) {
			panic(fmt.Sprintf("core: partial for already-synchronized (%d,%d)", v, s))
		}
		e.sigma[i] += sigma
	case cur > dist:
		if e.isSent(v, s) {
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
// known up front (source s synchronizes in round Asv = R - τsv + 1),
// so it is bucketed by round once; BackwardFlags then costs O(|flags|)
// per round. The slabs are scanned in ascending pair index, so each
// round's flags are ascending (vertex, source).
func (e *Engine) StartBackward(R int) {
	e.backByRound = e.backByRound[:0]
	if e.sigma == nil {
		return // no label was ever written
	}
	// Counting pass: exact per-round sizes, so the flags live in one
	// arena instead of append-grown round slices.
	counts := e.backCounts[:0]
	total := 0
	for i, d := range e.dist {
		if d == graph.InfDist {
			continue
		}
		r := R - int(e.tau[i]) + 1
		for len(counts) < r {
			counts = append(counts, 0)
		}
		counts[r-1]++
		total++
	}
	e.backCounts = counts
	if cap(e.backArena) < total {
		// Headroom: batches reach slightly different pair counts, and an
		// arena re-made at every new maximum costs the sum of the maxima.
		e.backArena = make([]uint32, total+total/8)
	}
	arena := e.backArena[:total]
	off := 0
	for _, c := range counts {
		e.backByRound = append(e.backByRound, arena[off:off:off+int(c)])
		off += int(c)
	}
	for i, d := range e.dist {
		if d != graph.InfDist {
			r := R - int(e.tau[i]) + 1
			e.backByRound[r-1] = append(e.backByRound[r-1], uint32(i))
		}
	}
}

// BackwardFlags appends the (vertex, source) pairs whose dependency
// value synchronizes in backward round r.
func (e *Engine) BackwardFlags(r int, dst []Flag) []Flag {
	if r < 1 || r > len(e.backByRound) {
		return dst
	}
	k := uint32(e.k)
	for _, p := range e.backByRound[r-1] {
		dst = append(dst, Flag{V: p / k, Src: int(p % k)})
	}
	return dst
}

// BackwardRounds returns the number of rounds the backward phase needs:
// the largest Asv across this host.
func (e *Engine) BackwardRounds() int { return len(e.backByRound) }

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
