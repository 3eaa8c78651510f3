// Package mrbcdist implements Min-Rounds BC on the D-Galois model
// (Section 4 of the paper): one core.Engine per host over its
// partition, BSP rounds that map 1:1 onto CONGEST rounds, and the
// delayed-synchronization optimization — a proxy's (dist, σ) labels are
// reduced and broadcast only in the round r = dsv + ℓrv(dsv, s)
// dictated by the algorithm (the Proxy Synchronization Rule of §4.3),
// and its dependency label only in round Asv = R − τsv of Algorithm 5.
//
// Proxies of one vertex can disagree on that round when two sources tie
// on distance, so due proxies only propose and the vertex's master
// synchronizes the lexicographically smallest proposal (DESIGN.md §5).
//
// Sources are processed in batches of k (the batch size studied in
// Figure 1); each batch costs at most k + H forward rounds and the
// same again backward (Lemma 8). A batch's rounds are written once
// (batchRun); with Options.PipelineDepth > 1 several batches run that
// body as coroutines (pipeline.go): while one batch's exchange is on
// the wire, another batch computes — scores and the model trace stay
// bitwise identical to the serial loop.
package mrbcdist

import (
	"fmt"
	"sync/atomic"

	"mrbc/internal/bitset"
	"mrbc/internal/core"
	"mrbc/internal/dgalois"
	"mrbc/internal/elastic"
	"mrbc/internal/gluon"
	"mrbc/internal/graph"
	"mrbc/internal/obs"
	"mrbc/internal/partition"
)

// Options configures a distributed MRBC run.
type Options struct {
	// BatchSize is k, the number of sources per batch. Defaults to 32
	// (the paper's small-graph setting, §5.2).
	BatchSize int
	// Trace receives one event per (round, host, phase), plus — at
	// obs.LevelDetail — one send event per synchronized (vertex, source)
	// pair and one summary event per batch. Nil disables tracing.
	Trace *obs.Trace
	// Metrics is the registry the cluster mirrors its counts into, with
	// the engine's live progress gauges (mrbc_batch, mrbc_round,
	// mrbc_frontier, mrbc_backward) the telemetry endpoint's /progressz
	// view derives from; nil publishes no telemetry. The returned Stats
	// never read it.
	Metrics *obs.Registry
	// Transport overrides the cluster's byte-moving backend (nil: the
	// in-process simulated network). A remote backend (gluon.TCPTransport)
	// runs this process as one host of a multi-process SPMD cluster:
	// every process executes the same batch loop, engine state exists
	// only for the local host, the termination vote rides each round's
	// forward exchanges, and the returned scores hold only the
	// local host's master contributions (zero elsewhere) — the
	// coordinator sums the per-process vectors elementwise.
	Transport gluon.Transport
	// PipelineDepth software-pipelines source batches: up to this many
	// batches run concurrently, each handing the cluster to the next
	// while its own exchange's bytes are on the wire (see pipeline.go).
	// 0 or 1 run the strictly serial batch loop — the default, with
	// traces and stats byte-identical to prior releases. Scores and the
	// model-event stream are independent of the depth: batches retire
	// in index order, replaying the serial floating-point fold exactly.
	// The depth is clamped to the number of batches. SPMD processes of
	// one job must agree on the depth.
	PipelineDepth int
	// Checkpoint, when non-nil, persists a boundary snapshot into the
	// sink after every source batch: the scores folded so far plus the
	// cluster's deterministic counter cursor. Batch boundaries are exact
	// recovery units (all other engine state is reset per batch), so a
	// run resumed from any persisted boundary is bitwise identical to the
	// uninterrupted run from that point on. Requires the serial batch
	// loop (PipelineDepth ≤ 1): a pipelined run has no single boundary at
	// which all engine state is quiescent.
	Checkpoint elastic.Sink
	// Resume, when non-nil, starts the run at the snapshot's boundary
	// instead of batch 0: scores are restored bitwise and the cluster's
	// phase-sequence and paper-model counters are seeded from the
	// snapshot's cursor, so trace numbering and Stats continue the
	// pre-restore sequence exactly. The snapshot's cluster size must
	// match the partitioning. Requires PipelineDepth ≤ 1.
	Resume *elastic.Snapshot
	// Epoch is the membership epoch the run executes under (elastic
	// recovery bumps it per attempt); stamped into checkpoints and the
	// dgalois_epoch gauge.
	Epoch int
}

func (o Options) withDefaults() Options {
	if o.BatchSize <= 0 {
		o.BatchSize = 32
	}
	if o.BatchSize > maxBatch {
		o.BatchSize = maxBatch
	}
	return o
}

// pipelineDepth clamps the configured depth to [1, number of batches].
func pipelineDepth(opts Options, nSources int) int {
	d := opts.PipelineDepth
	if d < 1 {
		d = 1
	}
	if n := (nSources + opts.BatchSize - 1) / opts.BatchSize; n > 0 && d > n {
		d = n
	}
	return d
}

// none marks an empty slab slot and the end of a chain.
const none = -1

// hostState is one host's engine plus its round state for one batch.
// The round state is a set of flat slabs indexed by local proxy ID
// (DESIGN.md §5, "Host round state"): compute phases and unpack calls —
// both serial per host — write them, and the pack calls, which run in
// parallel across destination pairs, only read them.
type hostState struct {
	part   *partition.Part
	engine *core.Engine

	flags  []core.Flag // this host's locally-detected flags
	synced []core.Flag // (v,s) synchronized this round, to relax/accumulate
	nBcast int         // synced[:nBcast] are the pairs this host's masters broadcast

	due   []int32 // source of this host's due flag at the vertex, or none
	bcast []int32 // source the vertex's master broadcasts this round, or none
	// marks holds the mirrors with a due slot and the masters with a
	// bcast slot until the reduce and the broadcast pack ship them.
	marks *gluon.Marks

	// Per-vertex proposal chains. head[v] is the first element of v's
	// chain in proposals; touched holds every vertex with a chain.
	// Walking touched visits vertices in ascending index order, which
	// fixes the order of synced — the relax order — run to run.
	head      []int32
	touched   *bitset.Set
	proposals []proposal // this round's mirror proposals, then the master's own
}

func newHostState(p *partition.Part, marks *gluon.Marks, eng *core.Engine) *hostState {
	n := p.NumProxies()
	slab := make([]int32, 3*n)
	for i := range slab {
		slab[i] = none
	}
	return &hostState{
		part:    p,
		engine:  eng,
		due:     slab[:n:n],
		bcast:   slab[n : 2*n : 2*n],
		head:    slab[2*n:],
		marks:   marks,
		touched: bitset.New(n),
	}
}

// resetRound returns the slabs to all-none by undoing exactly what the
// previous round set: O(flags + broadcasts), never a pass over the
// proxies. Arbitration drains head and touched itself.
func (st *hostState) resetRound() {
	for _, f := range st.flags {
		st.due[f.V] = none
	}
	for _, f := range st.synced[:st.nBcast] {
		st.bcast[f.V] = none
	}
	st.synced, st.nBcast = st.synced[:0], 0
}

// drainTouched visits the touched vertices in ascending index order and
// empties the set.
func (st *hostState) drainTouched(visit func(v uint32)) {
	st.touched.ForEach(func(v int) bool {
		visit(uint32(v))
		return true
	})
	st.touched.Reset()
}

// markDue publishes the round's flags to the pack calls: a due mirror
// is marked for the reduce (a due master proposes to itself). The engine
// emits at most one flag per vertex per round.
func (st *hostState) markDue() {
	for _, f := range st.flags {
		st.due[f.V] = int32(f.Src)
		if !st.part.IsMaster[f.V] {
			st.marks.Mark(f.V)
		}
	}
}

// markDuePartials is markDue for a backward round: a due mirror is
// marked for the reduce only when its δ partial is nonzero. The partial
// is final once its flag is due, and only a proxy with local out-edges
// can hold a nonzero one; δ is never −0.0, so the master's sum without
// the +0.0 terms is the same float, bit for bit.
func (st *hostState) markDuePartials() {
	for _, f := range st.flags {
		st.due[f.V] = int32(f.Src)
		if !st.part.IsMaster[f.V] && st.engine.DeltaPartial(f.V, f.Src) != 0 {
			st.marks.Mark(f.V)
		}
	}
}

// progressGauges are the engine's live-progress instruments, resolved
// once per run from Options.Metrics (detached no-op gauges when it is
// nil) and updated from the coordinator only — never inside a compute
// phase — so they cost nothing on the hot path.
type progressGauges struct {
	batch *obs.Gauge // current batch index
	round *obs.Gauge // current phase-local round (forward or backward)
	// frontier is the round's due pairs + pending entries over the local
	// hosts: the cluster's count in process, this host's share in SPMD,
	// where a relayed vote leaves no host the cluster's exact sum.
	frontier *obs.Gauge
	backward *obs.Gauge // 1 while the batch's backward phase runs
}

func newProgressGauges(reg *obs.Registry) progressGauges {
	return progressGauges{
		batch:    reg.Gauge("mrbc_batch"),
		round:    reg.Gauge("mrbc_round"),
		frontier: reg.Gauge("mrbc_frontier"),
		backward: reg.Gauge("mrbc_backward"),
	}
}

// proposal is a proxy's round-r claim that (v, src) is due, with its
// local label values; masters arbitrate proposals per vertex.
type proposal struct {
	v     uint32 // master-side local ID
	dist  uint32
	src   int32
	next  int32 // next proposal for v in arrival order, or none
	sigma float64
	own   bool // the master's own proposal: its σ partial is already in the engine
}

// less orders proposals for the same vertex lexicographically by
// (dist, src) — the order of the list Lv.
func (p *proposal) less(q *proposal) bool {
	if p.dist != q.dist {
		return p.dist < q.dist
	}
	return p.src < q.src
}

// maxBatch clamps Options.BatchSize. Source indices live in int32 slab
// slots and travel as u32, and an engine's label array is dense in
// (proxies × batch), so memory runs out long before this does.
const maxBatch = 1 << 20

// Run computes BC restricted to sources over the partitioned graph
// using batched Min-Rounds BC, returning global scores and cluster
// statistics. It panics when the transport fails an exchange; use
// RunChecked over a transport that may fail.
func Run(g *graph.Graph, pt *partition.Partitioning, sources []uint32, opts Options) ([]float64, dgalois.Stats) {
	scores, stats, err := RunChecked(g, pt, sources, opts)
	if err != nil {
		panic(err)
	}
	return scores, stats
}

// RunChecked is Run returning the transport's structured error when an
// exchange exceeds its deadline (e.g. a peer stalled or severed past
// it). Every fault the transport recovers from yields err == nil and
// oracle-exact scores; on error the partial scores are meaningless.
func RunChecked(g *graph.Graph, pt *partition.Partitioning, sources []uint32, opts Options) ([]float64, dgalois.Stats, error) {
	return run(g, pt, sources, opts, nil)
}

// run is RunChecked with a hook that sees every batch before it runs
// (nil: none); tests use it to wrap a batch's phases with cross-checks.
func run(g *graph.Graph, pt *partition.Partitioning, sources []uint32, opts Options, instrument func(*batchRun)) ([]float64, dgalois.Stats, error) {
	opts = opts.withDefaults()
	n := g.NumVertices()
	for _, s := range sources {
		if int(s) >= n {
			panic(fmt.Sprintf("mrbcdist: source %d out of range [0,%d)", s, n))
		}
	}
	depth := pipelineDepth(opts, len(sources))
	if (opts.Checkpoint != nil || opts.Resume != nil) && depth > 1 {
		panic("mrbcdist: checkpoint/resume requires the serial batch loop (PipelineDepth <= 1)")
	}
	topo := gluon.NewTopology(pt)
	cluster := dgalois.NewClusterOpts(pt.NumHosts, dgalois.ClusterOptions{
		Trace:     opts.Trace,
		Metrics:   opts.Metrics,
		Transport: opts.Transport,
		Epoch:     opts.Epoch,
	})
	defer cluster.Close()
	scores := make([]float64, n)
	pool := &statePool{kmax: min(opts.BatchSize, len(sources))}
	startBatch := 0
	if rs := opts.Resume; rs != nil {
		if rs.Hosts != pt.NumHosts {
			panic(fmt.Sprintf("mrbcdist: snapshot belongs to a %d-host cluster, partitioning has %d", rs.Hosts, pt.NumHosts))
		}
		if len(rs.Scores) != n {
			panic(fmt.Sprintf("mrbcdist: snapshot carries %d scores, graph has %d vertices", len(rs.Scores), n))
		}
		copy(scores, rs.Scores)
		startBatch = rs.NextBatch
		cluster.Restore(rs.Cursor)
		if opts.Trace.Enabled() {
			opts.Trace.Emit(obs.Event{Kind: obs.KindElastic, Phase: obs.PhaseRestore,
				Batch: int32(startBatch), Host: int32(cluster.LocalHost())})
		}
	}
	j := &job{cluster: cluster, topo: topo, pool: pool, sources: sources,
		scores: scores, opts: opts, prog: newProgressGauges(opts.Metrics), instrument: instrument}
	err := dgalois.Capture(func() {
		if depth > 1 {
			runPipelined(j, depth)
			return
		}
		for bi := startBatch; bi*opts.BatchSize < len(sources); bi++ {
			b := j.newBatch(bi, nil)
			b.run()
			b.retire()
			saveCheckpoint(cluster, scores, bi+1, opts)
		}
	})
	return scores, cluster.Stats(), err
}

// saveCheckpoint persists the batch-boundary snapshot into
// Options.Checkpoint (no-op when checkpointing is off). It runs inside
// the run's Capture, so a sink failure aborts the run through the same
// structured-fault path as a transport failure — a checkpoint that
// silently failed would turn a later restore into data loss.
func saveCheckpoint(cluster *dgalois.Cluster, scores []float64, next int, opts Options) {
	if opts.Checkpoint == nil {
		return
	}
	data := elastic.Encode(&elastic.Snapshot{
		Host:      cluster.LocalHost(),
		Hosts:     cluster.NumHosts(),
		Epoch:     opts.Epoch,
		NextBatch: next,
		Cursor:    cluster.Cursor(),
		Scores:    scores,
	})
	if err := opts.Checkpoint.Put(next, data); err != nil {
		dgalois.Abort(&dgalois.FaultError{Host: cluster.LocalHost(), Exchange: -1,
			Reason: "checkpoint: " + err.Error()})
	}
	if opts.Trace.Enabled() {
		opts.Trace.Emit(obs.Event{Kind: obs.KindElastic, Phase: obs.PhaseCheckpoint,
			Batch: int32(next), Host: int32(cluster.LocalHost())})
	}
}

// statePool keeps a run's per-host engine states between batches: a
// batch takes a set, resets it and hands it back when it retires, so a
// run builds one engine per host per in-flight batch for its whole life.
// The serial loop calls it from one goroutine and the pipelined one only
// while holding the turn, so it needs no lock.
type statePool struct {
	kmax int // the run's largest batch: what engines are built for
	free [][]*hostState
}

// makeStates readies one batch's per-host engine state in a single BSP
// compute phase: a pooled set reset to the batch's size, or a newly
// built one when every set is in flight. The round-state slabs need no
// reset of their own — the first round's resetRound undoes what the
// previous batch's last round left, exactly as it does between rounds.
func (p *statePool) makeStates(cluster *dgalois.Cluster, topo *gluon.Topology, batch []uint32) []*hostState {
	pt := topo.Partitioning()
	k := len(batch)
	var states []*hostState
	if n := len(p.free); n > 0 {
		states, p.free = p.free[n-1], p.free[:n-1]
	} else {
		states = make([]*hostState, pt.NumHosts)
	}
	cluster.Compute(func(h int) {
		st := states[h]
		built := st == nil
		if built {
			part := pt.Parts[h]
			st = newHostState(part, topo.NewMarks(h), core.NewEngine(part.Local, p.kmax))
			states[h] = st
		}
		// A new engine is clean at its construction stride.
		if !built || k != p.kmax {
			st.engine.Reset(k)
		}
		for i, s := range batch {
			if l, ok := st.part.LocalID(s); ok {
				st.engine.InitSource(l, i, st.part.IsMaster[l])
			}
		}
	})
	return states
}

// release returns a retired batch's states to the pool.
func (p *statePool) release(states []*hostState) {
	p.free = append(p.free, states)
}

// forwardFlags is compute phase A of forward round b.r: reset the round
// state, collect the round's due flags for the pack calls, and fold this
// host's activity (due pairs + pending entries) into b.activity.
func (b *batchRun) forwardFlags(h int) {
	st := b.states[h]
	st.resetRound()
	st.flags = st.engine.ForwardFlags(b.r, st.flags[:0])
	st.markDue()
	p := int64(len(st.flags))
	if st.engine.PendingUnsent() {
		p++
	}
	atomic.AddInt64(&b.activity, p)
}

// relax is compute phase B of a forward round: relax the synchronized
// entries locally.
func (b *batchRun) relax(h int) {
	st := b.states[h]
	for _, f := range st.synced {
		st.engine.RelaxOutLocal(f.V, f.Src)
	}
}

// backwardFlags resets the round state and collects backward round
// b.r's due flags for the pack calls.
func (b *batchRun) backwardFlags(h int) {
	st := b.states[h]
	st.resetRound()
	st.flags = st.engine.BackwardFlags(b.r, st.flags[:0])
	st.markDuePartials()
}

// accumulate folds one backward round's synchronized dependencies into
// the predecessors' δ partials.
func (b *batchRun) accumulate(h int) {
	st := b.states[h]
	for _, f := range st.synced {
		st.engine.AccumulateIn(f.V, f.Src)
	}
}

// foldScores folds one finished batch's master dependencies into the
// global scores (only the local hosts' masters in SPMD mode: the
// per-process vectors are disjoint and sum to the full scores). The
// iteration order — hosts ascending, then local vertices, then batch
// index — is the floating-point fold order at every pipeline depth.
func foldScores(states []*hostState, batch []uint32, scores []float64) {
	for _, st := range states {
		if st == nil {
			continue
		}
		for l, gid := range st.part.GlobalID {
			if !st.part.IsMaster[l] {
				continue
			}
			for i, s := range batch {
				d := st.engine.Get(uint32(l), i)
				if d.Dist != graph.InfDist && gid != s {
					scores[gid] += d.Delta
				}
			}
		}
	}
}

// job is what every batch of one run shares.
type job struct {
	cluster *dgalois.Cluster
	topo    *gluon.Topology
	pool    *statePool
	sources []uint32
	scores  []float64
	opts    Options
	prog    progressGauges

	instrument func(*batchRun) // see run
}

// batchRun is one source batch's pass over the cluster. The round body
// below exists once; the only thing PipelineDepth changes about it is
// how exchange waits for the wire.
type batchRun struct {
	*job
	bi        int
	batch     []uint32
	states    []*hostState
	pipe      *pipeRunner // nil: the serial loop, every exchange completes in place
	fwd, back int         // rounds each phase took
	r         int         // the round in progress, forward or backward
	activity  int64       // forward: due pairs + pending entries over the local hosts
	relay     bool        // the forward broadcast relays the reduce's partial vote (newBatch)
	phases    phases
}

// phases are a batch's compute functions and exchange steps, which read
// b.r: bound once per batch, so that a round builds no closure.
type phases struct {
	forwardFlags, arbitrate, relax, backwardFlags, union, accumulate func(h int)
	firstReduce, fwdReduce, fwdBroadcast, backReduce, backBroadcast  dgalois.Sync
}

func (j *job) newBatch(bi int, pipe *pipeRunner) *batchRun {
	start := bi * j.opts.BatchSize
	end := min(start+j.opts.BatchSize, len(j.sources))
	b := &batchRun{job: j, bi: bi, batch: j.sources[start:end], pipe: pipe}
	// In round 1 every proxy of a source proposes; after it only a mirror
	// with local in-edges has a label of its own to propose. The forward
	// reduce carries the round's vote on those links. In process the
	// caller's sum is every host's already. An SPMD host relays its partial
	// sum over the forward broadcast where two legs reach every host, and
	// votes on every link where they do not; where the proposal links are
	// every link, the reduce alone reaches every host.
	reduce := dgalois.Sync{Links: j.topo.ProposalLinks(), Pack: b.packDueLabels, Unpack: b.unpackProposals, Vote: true}
	first := reduce
	first.Links = j.topo.PartnerLinks()
	broadcast := dgalois.Sync{Links: j.topo.PartnerLinks(), Pack: b.packBcastLabels, Unpack: b.unpackLabels}
	if j.cluster.LocalHost() >= 0 {
		switch j.topo.VoteLegs() {
		case 0:
			first.Links, reduce.Links = nil, nil
		case 2:
			b.relay = true
		}
	}
	// A backward reduce marks only mirrors with a nonzero δ partial, which
	// only local out-edges produce; the backward broadcast only mirrors
	// with local in-edges (MarkReaders).
	b.phases = phases{b.forwardFlags, b.arbitrate, b.relax, b.backwardFlags, b.union, b.accumulate,
		first, reduce, broadcast,
		dgalois.Sync{Links: j.topo.PartialLinks(), Pack: b.packDueDeltas, Unpack: b.unpackDeltaPartials},
		dgalois.Sync{Links: j.topo.ReaderLinks(), Pack: b.packBcastDeltas, Unpack: b.unpackDeltas}}
	if j.instrument != nil {
		j.instrument(b)
	}
	return b
}

// run executes the batch's forward and backward phases; retire is its
// epilogue.
func (b *batchRun) run() {
	b.prog.batch.Set(int64(b.bi))
	b.prog.round.Set(0)
	b.prog.backward.Set(0)
	b.states = b.pool.makeStates(b.cluster, b.topo, b.batch)

	// ---- Forward phase (Algorithm 3 as BSP rounds). ----
	for r := 1; b.forwardRound(r); r++ {
		b.fwd = r
	}

	// ---- Backward phase (Algorithm 5 as BSP rounds). ----
	b.cluster.Compute(func(h int) { b.states[h].engine.StartBackward(b.fwd) })
	b.back = b.backwardDepth()
	b.prog.backward.Set(1)
	for r := 1; r <= b.back; r++ {
		b.backwardRound(r)
	}
}

// backwardDepth is the number of backward rounds every process must run,
// the deepest host's, known without an all-reduce: a pair synchronized in
// forward round τ is due in backward round R − τ + 1 (R = b.fwd), so no
// host goes deeper than R, and a source's own pair, lexicographically
// first in its vertex's list, synchronized in round τ = 1 (Lemma 8's
// schedule), so some host goes exactly that deep. A local host deeper
// than R means the schedules diverged.
func (b *batchRun) backwardDepth() int {
	for h, st := range b.states {
		if st != nil && st.engine.BackwardRounds() > b.fwd {
			panic(fmt.Sprintf("mrbcdist: batch %d: host %d has %d backward rounds after %d forward rounds", b.bi, h, st.engine.BackwardRounds(), b.fwd))
		}
	}
	return b.fwd
}

// exchange is the one depth-dependent step: it runs s carrying local
// and returns the sum its links carried in (dgalois.Cluster.Sync). The
// serial loop runs the exchange in place. A pipelined batch sends it,
// hands the turn to the next batch while the bytes are on the wire, and
// completes it when the turn comes back; a vote that opens no exchange
// (in process, a zero) does not rotate the turn. The turn rotation keeps
// the global operation order a deterministic function of the batch
// schedule.
func (b *batchRun) exchange(s dgalois.Sync, local int64) int64 {
	if b.pipe == nil {
		return b.cluster.Sync(s, local)
	}
	p := b.cluster.BeginSync(s, local)
	if p == nil {
		return 0
	}
	b.pipe.t.yield()
	b.pipe.take(b.bi)
	p.Complete()
	return p.Sum()
}

// forwardRound runs forward round r and reports whether any host had
// work in it; the first idle round ends the phase. Label
// synchronization: due mirrors propose (src, dist, σ-partial) to
// masters; masters arbitrate one winner per vertex (the
// lexicographically smallest proposal), merge the winner's σ partials,
// apply the finalized value, and broadcast (src, dist, σ) to every
// mirror.
//
// Global quiescence: in SPMD mode b.activity is only this host's share,
// so the reduce exchange carries it. Without a relay it returns every
// host's sum. With one it returns the share plus those of the hosts
// that propose to this one, and the broadcast carries that partial sum
// on: the sum it returns counts every host's share at least once, so
// every host reads zero in the same round, after the broadcast, and an
// idle round costs both exchanges.
func (b *batchRun) forwardRound(r int) (active bool) {
	b.cluster.BeginRound()
	b.r, b.activity = r, 0
	b.cluster.Compute(b.phases.forwardFlags)
	reduce := b.phases.fwdReduce
	if r == 1 {
		reduce = b.phases.firstReduce
	}
	vote := b.exchange(reduce, b.activity)
	b.prog.round.Set(int64(r))
	b.prog.frontier.Set(b.activity)
	if !b.relay && vote == 0 {
		return false
	}
	b.cluster.Compute(b.phases.arbitrate)
	if !b.relay {
		b.exchange(b.phases.fwdBroadcast, 0)
	} else if b.exchange(b.phases.fwdBroadcast, vote) == 0 {
		return false
	}
	b.cluster.Compute(b.phases.relax)
	return true
}

// backwardRound runs backward round r, synchronizing the dependency
// labels of its flagged pairs: mirrors push δ partials (then reset
// them), masters sum and broadcast the final dependency.
func (b *batchRun) backwardRound(r int) {
	b.cluster.BeginRound()
	b.r = r
	b.prog.round.Set(int64(r))
	b.cluster.Compute(b.phases.backwardFlags)
	b.exchange(b.phases.backReduce, 0)
	b.cluster.Compute(b.phases.union)
	b.exchange(b.phases.backBroadcast, 0)
	b.cluster.Compute(b.phases.accumulate)
}

// retire is the per-batch epilogue: one summary event (K sources and
// the forward and backward round counts — the inputs of the Lemma 8
// bound fwd + back + 1 ≤ 2(k+H) + 1 the trace harness checks), then
// the score fold. Batches retire in index order, which
// fixes the floating-point fold order.
func (b *batchRun) retire() {
	if tr := b.opts.Trace; tr.Enabled() {
		tr.Emit(obs.Event{Kind: obs.KindBatch, Batch: int32(b.bi), Host: -1,
			K: int32(len(b.batch)), FwdRounds: int32(b.fwd), BackRounds: int32(b.back)})
	}
	foldScores(b.states, b.batch, b.scores)
	b.pool.release(b.states)
}

// emitLabels writes the forward payload of (lid, src): this host's
// current (dist, σ).
func (st *hostState) emitLabels(lid uint32, src int32, w *gluon.Writer) {
	d := st.engine.Get(lid, int(src))
	w.U32(uint32(src))
	w.U32(d.Dist)
	w.F64(d.Sigma)
}

// packDueLabels and unpackProposals are the forward reduce step: due
// mirror proxies -> master (proposals are buffered; nothing is merged
// until arbitration picks the winners).
func (b *batchRun) packDueLabels(from, to int, w *gluon.Writer) {
	st := b.states[from]
	st.marks.EncodeReduce(w, to, func(lid uint32, w *gluon.Writer) { st.emitLabels(lid, st.due[lid], w) })
}

func (b *batchRun) unpackProposals(to, from int, data []byte, dec *gluon.Decoder) {
	st := b.states[to]
	list := b.topo.MasterList(from, to)
	dec.DecodeUpdates(len(list), data, func(pos int, rd *gluon.Reader) {
		st.proposals = append(st.proposals, proposal{
			v:     list[pos],
			src:   int32(rd.U32()),
			dist:  rd.U32(),
			sigma: rd.F64(),
		})
	})
}

// arbitrate is the master-side compute of forward round b.r: per vertex,
// the lexicographically smallest proposal wins; losers are dropped (their
// hosts keep the entry unsent, and the winner's broadcast pushes their
// schedule to a later round). The winner's σ partials are merged and
// the label finalized. One pass chains the proposals per vertex, one
// pass over the touched vertices picks each chain's winner and folds it.
func (b *batchRun) arbitrate(h int) {
	st, r, tr := b.states[h], b.r, b.opts.Trace
	for _, f := range st.flags {
		if st.part.IsMaster[f.V] {
			d := st.engine.Get(f.V, f.Src)
			st.proposals = append(st.proposals, proposal{v: f.V, src: int32(f.Src), dist: d.Dist, own: true})
		}
	}
	// Newest first: pushing each proposal onto the front of its
	// vertex's chain leaves every chain in arrival order.
	for i := len(st.proposals) - 1; i >= 0; i-- {
		p := &st.proposals[i]
		p.next = st.head[p.v]
		st.head[p.v] = int32(i)
		st.touched.Set(int(p.v))
	}
	// Ascending vertex order: st.synced's order is the relax order, and
	// with it the order σ partials accumulate downstream.
	st.drainTouched(func(v uint32) {
		first := st.head[v]
		st.head[v] = none
		w := &st.proposals[first]
		for i := w.next; i != none; i = st.proposals[i].next {
			if p := &st.proposals[i]; p.less(w) {
				w = p
			}
		}
		src := int(w.src)
		// The winner's partials fold in arrival order: sender host
		// ascending, the fixed floating-point order of the σ sum.
		for i := first; i != none; i = st.proposals[i].next {
			p := &st.proposals[i]
			if p.src != w.src || p.own {
				continue
			}
			if p.dist != w.dist {
				panic(fmt.Sprintf("mrbcdist: proposals for (%d,%d) disagree on distance", v, src))
			}
			st.engine.MergePartial(v, src, p.dist, p.sigma)
		}
		d := st.engine.Get(v, src)
		st.engine.ApplySync(v, src, d.Dist, d.Sigma, r)
		st.synced = append(st.synced, core.Flag{V: v, Src: src})
		st.bcast[v] = w.src
		st.marks.Mark(v)
		// Every winner is master-owned and ApplySync rejects double
		// synchronization, so this fires exactly once per
		// (batch, vertex, source) — the forward half of the
		// reversal-symmetry invariant.
		if tr.Detail() {
			tr.Emit(obs.Event{Kind: obs.KindSend, Dir: obs.DirForward,
				Batch: int32(b.bi), Round: int32(r), Host: int32(h),
				V: int32(st.part.GlobalID[v]), Src: int32(src)})
		}
	})
	st.nBcast = len(st.synced)
	st.proposals = st.proposals[:0]
}

// packBcastLabels and unpackLabels are the forward broadcast step:
// masters -> all mirrors.
func (b *batchRun) packBcastLabels(from, to int, w *gluon.Writer) {
	st := b.states[from]
	st.marks.EncodeBroadcast(w, to, func(lid uint32, w *gluon.Writer) { st.emitLabels(lid, st.bcast[lid], w) })
}

func (b *batchRun) unpackLabels(to, from int, data []byte, dec *gluon.Decoder) {
	st, r := b.states[to], b.r
	list := b.topo.MirrorList(to, from)
	dec.DecodeUpdates(len(list), data, func(pos int, rd *gluon.Reader) {
		lid := list[pos]
		src := int(rd.U32())
		dist := rd.U32()
		sigma := rd.F64()
		st.engine.ApplySync(lid, src, dist, sigma, r)
		st.synced = append(st.synced, core.Flag{V: lid, Src: src})
	})
}

// The backward records carry only δ (8 B): Algorithm 5 schedules (v, s)
// in round R − τ + 1 on every proxy of v alike, τ being the forward
// round that synchronized it at all of them, so each side of an exchange
// reads the source from its own due flag for v (DESIGN.md §5, "Backward
// sync sends only what the receiver lacks").

// packDueDeltas and unpackDeltaPartials are the backward reduce step:
// due mirrors with a nonzero δ partial hand it to the master (and reset
// it locally).
func (b *batchRun) packDueDeltas(from, to int, w *gluon.Writer) {
	st := b.states[from]
	st.marks.EncodeReduce(w, to, func(lid uint32, w *gluon.Writer) {
		src := int(st.due[lid])
		w.F64(st.engine.DeltaPartial(lid, src))
		// Hand the partial to the master; the broadcast below
		// restores the final value where an in-edge reads it. Each
		// mirror vertex appears in exactly one (from, to) shared
		// list, so this write is safe under the pair-parallel pack
		// loop.
		st.engine.ApplyDeltaSync(lid, src, 0)
	})
}

func (b *batchRun) unpackDeltaPartials(to, from int, data []byte, dec *gluon.Decoder) {
	st := b.states[to]
	list := b.topo.MasterList(from, to)
	dec.DecodeUpdates(len(list), data, func(pos int, rd *gluon.Reader) {
		lid := list[pos]
		st.engine.AddDeltaPartial(lid, int(st.due[lid]), rd.F64())
	})
}

// union is the master-side compute of backward round b.r: every vertex
// this host masters and flagged is synchronized — the mirrors' partials
// are already summed in — and broadcast to the mirrors whose in-edges
// read it.
func (b *batchRun) union(h int) {
	st, r, tr := b.states[h], b.r, b.opts.Trace
	// The flags ascend by vertex: st.synced's order is the
	// δ-accumulation order at the predecessors.
	for _, f := range st.flags {
		v := f.V
		if !st.part.IsMaster[v] {
			continue
		}
		st.synced = append(st.synced, f)
		st.bcast[v] = int32(f.Src)
		st.marks.MarkReaders(v)
		// Each (v, src) is flagged at its master in exactly one
		// backward round — the round Algorithm 5 schedules as
		// A = R − τ + 1.
		if tr.Detail() {
			tr.Emit(obs.Event{Kind: obs.KindSend, Dir: obs.DirBackward,
				Batch: int32(b.bi), Round: int32(r), Host: int32(h),
				V: int32(st.part.GlobalID[v]), Src: int32(f.Src)})
		}
	}
	st.nBcast = len(st.synced)
}

// packBcastDeltas and unpackDeltas are the backward broadcast step:
// masters push the summed dependency back to every mirror with local
// in-edges.
func (b *batchRun) packBcastDeltas(from, to int, w *gluon.Writer) {
	st := b.states[from]
	st.marks.EncodeBroadcast(w, to, func(lid uint32, w *gluon.Writer) {
		w.F64(st.engine.DeltaPartial(lid, int(st.bcast[lid])))
	})
}

func (b *batchRun) unpackDeltas(to, from int, data []byte, dec *gluon.Decoder) {
	st := b.states[to]
	list := b.topo.MirrorList(to, from)
	dec.DecodeUpdates(len(list), data, func(pos int, rd *gluon.Reader) {
		lid := list[pos]
		src := int(st.due[lid])
		st.engine.ApplyDeltaSync(lid, src, rd.F64())
		st.synced = append(st.synced, core.Flag{V: lid, Src: src})
	})
}
