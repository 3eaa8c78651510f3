// Package sbbc implements Synchronous-Brandes BC (SBBC), the paper's
// primary baseline (§5): the Brandes algorithm with level-by-level
// breadth-first traversal, one source at a time, mapped onto the
// D-Galois BSP model. Each BFS level is one BSP round in the forward
// phase; each level of the dependency accumulation is one round in the
// backward phase, so a source of eccentricity L costs about 2L+1
// rounds — the number MRBC's pipelining collapses.
package sbbc

import (
	"fmt"
	"sync/atomic"

	"mrbc/internal/bitset"
	"mrbc/internal/dgalois"
	"mrbc/internal/gluon"
	"mrbc/internal/graph"
	"mrbc/internal/obs"
	"mrbc/internal/partition"
)

type hostState struct {
	part  *partition.Part
	dist  []uint32
	sigma []float64
	delta []float64

	frontier   []uint32     // local vertices finalized at the previous level
	inFrontier *bitset.Set  // dedup for frontier construction
	dirty      *bitset.Set  // proxies relaxed in this forward round's compute
	masterOut  *bitset.Set  // masters finalized this forward round
	marks      *gluon.Marks // proxies the next exchange of their direction ships
	relaxed    int64        // activity counter for termination

	// The backward phase's schedule, built once per source: the reached
	// proxies counting-sorted by dist, ascending inside a level;
	// level l is byLevel[levelStart[l]:levelStart[l+1]].
	byLevel    []uint32
	levelStart []uint32
}

// relax records a forward relaxation of proxy w: dirty for the frontier
// build, marked for the sync that follows.
func (st *hostState) relax(w uint32) {
	st.dirty.Set(int(w))
	st.marks.Mark(w)
	st.relaxed++
}

// emitLabels writes the forward payload of proxy lid: its (dist, σ).
func (st *hostState) emitLabels(lid uint32, w *gluon.Writer) {
	w.U32(st.dist[lid])
	w.F64(st.sigma[lid])
}

// bucketLevels builds the backward schedule from the final distances.
func (st *hostState) bucketLevels(levels uint32) {
	// Counts go in at dist+2, so that after the prefix sum entry dist+1
	// is the level's fill cursor and ends as the next level's start.
	start := append(st.levelStart[:0], make([]uint32, levels+3)...)
	for _, d := range st.dist {
		if d != graph.InfDist {
			start[d+2]++
		}
	}
	for l := 1; l < len(start); l++ {
		start[l] += start[l-1]
	}
	st.byLevel = append(st.byLevel[:0], make([]uint32, start[levels+2])...)
	for w, d := range st.dist {
		if d != graph.InfDist {
			st.byLevel[start[d+1]] = uint32(w)
			start[d+1]++
		}
	}
	st.levelStart = start[:levels+2]
}

// Options configures SBBC.
type Options struct {
	// DirectionOptimizing enables Beamer-style push/pull switching in
	// the forward phase: when the frontier's out-edges outnumber the
	// unvisited vertices' in-edges (scaled by Alpha), each host scans
	// unvisited proxies pulling from the frontier instead of pushing
	// along it. Both directions produce identical label partials, so
	// hosts decide independently per round.
	DirectionOptimizing bool
	// Alpha is the push->pull switch threshold (default 4): pull when
	// frontierOutEdges*Alpha > unvisitedInEdges.
	Alpha int
	// Encoding pins the sync-metadata wire format (default
	// gluon.FormatAuto: density-adaptive selection per message).
	Encoding gluon.Format
	// Trace receives one event per (round, host, phase), plus — at
	// obs.LevelDetail — one send event per finalized (vertex, source)
	// label and one summary event per source. Nil disables tracing.
	Trace *obs.Trace
	// Metrics is the registry the cluster populates; nil gives the run
	// a private registry reachable through the returned Stats only.
	// A non-nil registry additionally carries the live progress gauges
	// (sbbc_source, sbbc_level, sbbc_frontier) the telemetry endpoint's
	// /progressz view derives from.
	Metrics *obs.Registry
	// Workers overrides the size of the cluster's worker pool, which
	// runs the hosts' compute phases as well as their packs and unpacks
	// (0: automatic). Trace content is independent of this value. Unused
	// with a remote Transport (dgalois.ClusterOptions.Workers).
	Workers int
	// Transport overrides the cluster's byte-moving backend (nil: the
	// in-process simulated network). A remote backend runs this process
	// as one host of a multi-process SPMD cluster: engine state exists
	// only for the local host, the termination vote rides each level's
	// reduce exchange, and the returned scores hold only the local host's
	// master contributions (the coordinator sums per-process vectors).
	Transport gluon.Transport
}

func (o Options) withDefaults() Options {
	if o.Alpha <= 0 {
		o.Alpha = 4
	}
	return o
}

// shouldPull applies the direction-optimization heuristic on this
// host's local view.
func (st *hostState) shouldPull(alpha int) bool {
	local := st.part.Local
	frontierOut := 0
	for _, u := range st.frontier {
		frontierOut += local.OutDegree(u)
	}
	unvisitedIn := 0
	for w := 0; w < st.part.NumProxies(); w++ {
		if st.dist[w] == graph.InfDist {
			unvisitedIn += local.InDegree(uint32(w))
		}
	}
	return frontierOut*alpha > unvisitedIn
}

// Run computes BC restricted to sources over the partitioned graph,
// one source at a time, returning the scores (indexed by global vertex
// ID) and the cluster execution statistics.
func Run(g *graph.Graph, pt *partition.Partitioning, sources []uint32) ([]float64, dgalois.Stats) {
	return RunOpts(g, pt, sources, Options{})
}

// RunOpts is Run with explicit options. It panics when the transport
// fails an exchange; use RunOptsChecked over a transport that may fail.
func RunOpts(g *graph.Graph, pt *partition.Partitioning, sources []uint32, opts Options) ([]float64, dgalois.Stats) {
	scores, stats, err := RunOptsChecked(g, pt, sources, opts)
	if err != nil {
		panic(err)
	}
	return scores, stats
}

// RunOptsChecked is RunOpts returning the transport's structured error
// when an exchange exceeds its deadline. Every fault the transport
// recovers from yields err == nil and oracle-exact scores; on error the
// partial scores are meaningless.
func RunOptsChecked(g *graph.Graph, pt *partition.Partitioning, sources []uint32, opts Options) ([]float64, dgalois.Stats, error) {
	opts = opts.withDefaults()
	n := g.NumVertices()
	for _, s := range sources {
		if int(s) >= n {
			panic(fmt.Sprintf("sbbc: source %d out of range [0,%d)", s, n))
		}
	}
	topo := gluon.NewTopology(pt)
	cluster := dgalois.NewClusterOpts(pt.NumHosts, dgalois.ClusterOptions{
		Trace:     opts.Trace,
		Metrics:   opts.Metrics,
		Workers:   opts.Workers,
		Transport: opts.Transport,
		Topology:  topo,
	})
	defer cluster.Close()
	cluster.SetEncoding(opts.Encoding)
	states := make([]*hostState, pt.NumHosts)
	for h, p := range pt.Parts {
		if !cluster.IsLocal(h) {
			continue
		}
		np := p.NumProxies()
		p.Local.EnsureInEdges()
		states[h] = &hostState{
			part:       p,
			dist:       make([]uint32, np),
			sigma:      make([]float64, np),
			delta:      make([]float64, np),
			inFrontier: bitset.New(np),
			dirty:      bitset.New(np),
			masterOut:  bitset.New(np),
			marks:      topo.NewMarks(h),
		}
	}
	scores := make([]float64, n)
	// Live progress gauges, updated from the coordinator only (detached
	// no-ops when opts.Metrics is nil).
	prog := sourceProgress{
		source:   opts.Metrics.Gauge("sbbc_source"),
		level:    opts.Metrics.Gauge("sbbc_level"),
		frontier: opts.Metrics.Gauge("sbbc_frontier"),
	}
	err := dgalois.Capture(func() { runSources(cluster, topo, states, sources, scores, opts, prog) })
	return scores, cluster.Stats(), err
}

// sourceProgress holds the engine's live-progress gauges, resolved
// once per run from Options.Metrics.
type sourceProgress struct {
	source   *obs.Gauge // current source index
	level    *obs.Gauge // current BFS / accumulation level
	frontier *obs.Gauge // vertices relaxed in the current round
}

// runSources processes the sources one at a time. The compute functions
// and exchange halves of a round are built here, once per run: a source
// costs ~2L+1 rounds of mostly empty exchanges, and a closure per phase
// was most of what such a round allocated. They read the source and the
// level in progress from the variables declared first.
func runSources(cluster *dgalois.Cluster, topo *gluon.Topology, states []*hostState, sources []uint32, scores []float64, opts Options, prog sourceProgress) {
	tr := opts.Trace
	var (
		si            int    // index of the source in progress
		src           uint32 // and the source
		level         uint32 // BFS level (forward), level being accumulated (backward)
		forwardLevels uint32
		active        int64 // relaxations over the local hosts this forward round
	)

	// Initialize labels. Every proxy of the source holds its final
	// value immediately (dist 0, σ 1): there is nothing to reduce for
	// the source itself.
	initSource := func(h int) {
		st := states[h]
		for i := range st.dist {
			st.dist[i] = graph.InfDist
			st.sigma[i] = 0
			st.delta[i] = 0
		}
		st.frontier = st.frontier[:0]
		st.inFrontier.Reset()
		if l, ok := st.part.LocalID(src); ok {
			st.dist[l] = 0
			st.sigma[l] = 1
			st.frontier = append(st.frontier, l)
		}
	}

	// The compute of forward round `level`.
	expand := func(h int) {
		st := states[h]
		st.dirty.Reset()
		st.masterOut.Reset()
		st.relaxed = 0
		local := st.part.Local
		if opts.DirectionOptimizing && st.shouldPull(opts.Alpha) {
			// Pull: every unvisited proxy scans its local in-edges
			// for frontier predecessors; yields the same partials
			// as pushing along the frontier's out-edges.
			for w := 0; w < st.part.NumProxies(); w++ {
				if st.dist[w] != graph.InfDist {
					continue
				}
				var acc float64
				for _, u := range local.InNeighbors(uint32(w)) {
					if st.dist[u] == level-1 {
						acc += st.sigma[u]
					}
				}
				if acc > 0 {
					st.dist[w] = level
					st.sigma[w] = acc
					st.relax(uint32(w))
				}
			}
		} else {
			for _, u := range st.frontier {
				su := st.sigma[u]
				for _, w := range local.OutNeighbors(u) {
					switch {
					case st.dist[w] == graph.InfDist:
						st.dist[w] = level
						st.sigma[w] = su
						st.relax(w)
					case st.dist[w] == level: // relaxed, so marked, earlier in this loop
						st.sigma[w] += su
						st.relaxed++
					}
				}
			}
		}
		// Next frontier assembles from broadcasts and local master
		// updates below.
		st.frontier = st.frontier[:0]
		st.inFrontier.Reset()
		atomic.AddInt64(&active, st.relaxed)
	}

	// Forward reduce, (min dist, σ-partial sum): relaxed mirrors -> masters.
	packLabels := func(from, to int, w *gluon.Writer) {
		states[from].marks.EncodeReduce(w, to, states[from].emitLabels)
	}
	reduceLabels := func(to, from int, data []byte, dec *gluon.Decoder) {
		st := states[to]
		list := topo.MasterList(from, to)
		dec.DecodeUpdates(len(list), data, func(pos int, r *gluon.Reader) {
			lid := list[pos]
			d := r.U32()
			sg := r.F64()
			switch {
			case st.dist[lid] == graph.InfDist || d < st.dist[lid]:
				st.dist[lid] = d
				st.sigma[lid] = sg
			case d == st.dist[lid]:
				st.sigma[lid] += sg
			default:
				return
			}
			st.masterOut.Set(int(lid))
			st.marks.Mark(lid)
		})
	}

	// Masters relaxed locally were marked for the broadcast as they were
	// relaxed; with the ones the reduce updated they are the masters
	// finalized this level, which join the frontier.
	buildFrontier := func(h int) {
		st := states[h]
		st.dirty.ForEach(func(l int) bool {
			if st.part.IsMaster[l] {
				st.masterOut.Set(l)
			}
			return true
		})
		st.masterOut.ForEach(func(l int) bool {
			if st.dist[l] == level && !st.inFrontier.Test(l) {
				st.inFrontier.Set(l)
				st.frontier = append(st.frontier, uint32(l))
				// First (and only) finalization of this master for this
				// source: its label broadcast happens at round τ = its
				// BFS level, the forward half of reversal symmetry.
				if tr.Detail() {
					tr.Emit(obs.Event{Kind: obs.KindSend, Dir: obs.DirForward,
						Batch: int32(si), Round: int32(level),
						Host: int32(h), V: int32(st.part.GlobalID[l]), Src: 0})
				}
			}
			return true
		})
	}

	// Forward broadcast: masters -> all mirrors, rebuilding the next
	// frontier on each host.
	packFinalLabels := func(from, to int, w *gluon.Writer) {
		states[from].marks.EncodeBroadcast(w, to, states[from].emitLabels)
	}
	applyLabels := func(to, from int, data []byte, dec *gluon.Decoder) {
		st := states[to]
		list := topo.MirrorList(to, from)
		dec.DecodeUpdates(len(list), data, func(pos int, r *gluon.Reader) {
			lid := list[pos]
			st.dist[lid] = r.U32()
			st.sigma[lid] = r.F64()
			if st.dist[lid] == level && !st.inFrontier.Test(int(lid)) {
				st.inFrontier.Set(int(lid))
				st.frontier = append(st.frontier, lid)
			}
		})
	}

	// The compute of the backward round of level `level`.
	accumulate := func(h int) {
		st, l := states[h], level
		if l == forwardLevels {
			st.bucketLevels(forwardLevels)
		}
		local := st.part.Local
		for _, w := range st.byLevel[st.levelStart[l]:st.levelStart[l+1]] {
			// A level-l master's dependency is consumed (and its
			// broadcast would happen) in backward round
			// forwardLevels − l + 1 = R − τ + 1: the reversal of its
			// forward finalization at level τ = l.
			if tr.Detail() && st.part.IsMaster[w] {
				tr.Emit(obs.Event{Kind: obs.KindSend, Dir: obs.DirBackward,
					Batch: int32(si), Round: int32(forwardLevels - l + 1),
					Host: int32(h), V: int32(st.part.GlobalID[w]), Src: 0})
			}
			coeff := (1 + st.delta[w]) / st.sigma[w]
			for _, v := range local.InNeighbors(w) {
				if st.dist[v] != graph.InfDist && st.dist[v]+1 == l {
					st.delta[v] += st.sigma[v] * coeff
					st.marks.Mark(v)
				}
			}
		}
	}

	// Backward reduce, δ partials (sum): mirrors -> masters. A master
	// whose δ the compute or the reduce touched is marked for the
	// broadcast then and there, so no phase sits between the two
	// exchanges.
	packDeltas := func(from, to int, w *gluon.Writer) {
		st := states[from]
		st.marks.EncodeReduce(w, to, func(lid uint32, w *gluon.Writer) {
			w.F64(st.delta[lid])
			// The partial has been handed to the master; reset so a
			// later broadcast can overwrite without double counting.
			// Each mirror vertex appears in exactly one (from, to)
			// list, so the write is safe under pair-parallel packs.
			st.delta[lid] = 0
		})
	}
	reduceDeltas := func(to, from int, data []byte, dec *gluon.Decoder) {
		st := states[to]
		list := topo.MasterList(from, to)
		dec.DecodeUpdates(len(list), data, func(pos int, r *gluon.Reader) {
			lid := list[pos]
			st.delta[lid] += r.F64()
			st.marks.Mark(lid)
		})
	}

	// Backward broadcast: the finalized dependencies back to mirrors.
	packFinalDeltas := func(from, to int, w *gluon.Writer) {
		st := states[from]
		st.marks.EncodeBroadcast(w, to, func(lid uint32, w *gluon.Writer) {
			w.F64(st.delta[lid])
		})
	}
	applyDeltas := func(to, from int, data []byte, dec *gluon.Decoder) {
		st := states[to]
		list := topo.MirrorList(to, from)
		dec.DecodeUpdates(len(list), data, func(pos int, r *gluon.Reader) {
			st.delta[list[pos]] = r.F64()
		})
	}

	for si, src = range sources {
		prog.source.Set(int64(si))
		cluster.Compute(initSource)

		// Forward phase: one BSP round per BFS level. The reduce exchange
		// carries the round's relaxation count and returns its sum over
		// the cluster: zero is global quiescence, the round found an empty
		// frontier and there was nothing to synchronize.
		for level = 1; ; level++ {
			cluster.BeginRound()
			active = 0
			cluster.Compute(expand)
			relaxed := cluster.ExchangeSum(active, packLabels, reduceLabels)
			prog.level.Set(int64(level))
			prog.frontier.Set(relaxed)
			if relaxed == 0 {
				break
			}
			cluster.Compute(buildFrontier)
			cluster.Exchange(packFinalLabels, applyLabels)
		}
		forwardLevels = level - 1

		// Backward phase: one BSP round per level, from the deepest level
		// inward. Dependencies of level-L vertices are final when level L+1
		// has been processed and synchronized.
		for level = forwardLevels; level >= 1; level-- {
			cluster.BeginRound()
			prog.level.Set(int64(level))
			cluster.Compute(accumulate)
			cluster.Exchange(packDeltas, reduceDeltas)
			cluster.Exchange(packFinalDeltas, applyDeltas)
		}

		// One summary event per source (a batch of K = 1): eccentricity
		// many rounds each way, the inputs of the Lemma 8 bound.
		if tr.Enabled() {
			tr.Emit(obs.Event{Kind: obs.KindBatch, Batch: int32(si), Host: -1,
				K: 1, FwdRounds: int32(forwardLevels), BackRounds: int32(forwardLevels)})
		}

		// Fold master dependencies into the scores.
		for _, st := range states {
			if st == nil {
				continue
			}
			for l, gid := range st.part.GlobalID {
				if st.part.IsMaster[l] && gid != src && st.dist[l] != graph.InfDist {
					scores[gid] += st.delta[l]
				}
			}
		}
	}
}
