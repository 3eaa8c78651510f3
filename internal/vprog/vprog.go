// Package vprog provides the general vertex-program layer of the
// D-Galois model (§4.1: "D-Galois supports vertex programs: each
// vertex in the graph has one or more labels which are initialized at
// the beginning of the computation and updated by applying a
// computation rule called an operator to the active vertices ... until
// a global quiescence condition is reached").
//
// The BC algorithms in internal/sbbc and internal/mrbcdist need
// custom synchronization rules and are hand-written; this package
// covers the common data-driven pattern — push-style label propagation
// with a selective reduction (BFS, connected components, SSSP-style
// relaxations) — and a topology-driven iterative pattern with a sum
// reduction (PageRank). Both run on the same cluster substrate and
// Gluon synchronization as the BC implementations, exercising the
// substrate's generality and serving as independent validation of the
// proxy machinery.
package vprog

import (
	"fmt"

	"mrbc/internal/bitset"
	"mrbc/internal/dgalois"
	"mrbc/internal/gluon"
	"mrbc/internal/obs"
	"mrbc/internal/partition"
)

// PushOptions configures the cluster a push program runs on. The zero
// value matches RunPush: perfect network, no tracing, private metrics.
type PushOptions struct {
	// Plan routes every exchange through the framed ack/retry transport
	// (nil: perfect network).
	Plan *dgalois.FaultPlan
	// Trace receives one event per (round, host, phase); nil disables.
	Trace *obs.Trace
	// Metrics is the registry the cluster populates; nil gives the run
	// a private registry reachable through the returned Stats only.
	// A non-nil registry additionally carries the live progress gauges
	// (vprog_round, vprog_active) the telemetry endpoint's /progressz
	// view derives from.
	Metrics *obs.Registry
	// Workers overrides the size of the cluster's worker pool, which runs
	// the hosts' compute phases as well as their packs and unpacks (0:
	// automatic).
	Workers int
	// Transport overrides the cluster's byte-moving backend (nil: the
	// in-process simulated network). A remote backend runs this process
	// as one host of a multi-process SPMD cluster; the returned labels
	// carry only the local host's master values (the coordinator merges
	// per-process vectors).
	Transport gluon.Transport
}

// PushProgram describes a data-driven label-propagation program over a
// single uint64 label per vertex with a "better of two" reduction
// (min-style). Active vertices push candidate labels along their
// out-edges; improved targets become active; execution reaches
// quiescence when no label improves.
type PushProgram struct {
	// Init returns the initial label of a global vertex and whether the
	// vertex starts active.
	Init func(gid uint32) (label uint64, active bool)
	// Relax produces the candidate label pushed along an out-edge given
	// the source proxy's label.
	Relax func(srcLabel uint64) uint64
	// Better reports whether a strictly improves on b (the reduction
	// keeps the better label; it must be a selective operation, i.e.,
	// pick one of the two).
	Better func(a, b uint64) bool
}

// RunPush executes the program over a partitioned graph and returns
// the final label per global vertex plus the cluster statistics.
func RunPush(g gview, pt *partition.Partitioning, prog PushProgram) ([]uint64, dgalois.Stats) {
	labels, stats, err := RunPushPlan(g, pt, prog, nil)
	if err != nil {
		panic(err)
	}
	return labels, stats
}

// RunPushPlan is RunPush on a cluster carrying a fault plan (nil:
// perfect network): exchanges run through the framed ack/retry
// transport, and an unrecoverable plan surfaces as the transport's
// structured error instead of a deadlock.
func RunPushPlan(g gview, pt *partition.Partitioning, prog PushProgram, plan *dgalois.FaultPlan) (labels []uint64, stats dgalois.Stats, err error) {
	return RunPushOpts(g, pt, prog, PushOptions{Plan: plan})
}

// RunPushOpts is RunPush on a fully configured cluster: fault plan,
// trace sink, metrics registry, and worker-pool override.
func RunPushOpts(g gview, pt *partition.Partitioning, prog PushProgram, opts PushOptions) (labels []uint64, stats dgalois.Stats, err error) {
	if prog.Init == nil || prog.Relax == nil || prog.Better == nil {
		panic("vprog: incomplete push program")
	}
	cluster := dgalois.NewClusterOpts(pt.NumHosts, dgalois.ClusterOptions{
		Plan:      opts.Plan,
		Trace:     opts.Trace,
		Metrics:   opts.Metrics,
		Workers:   opts.Workers,
		Transport: opts.Transport,
	})
	defer cluster.Close()
	// Live progress gauges, updated from the coordinator only (detached
	// no-ops when opts.Metrics is nil).
	roundG := opts.Metrics.Gauge("vprog_round")
	activeG := opts.Metrics.Gauge("vprog_active")
	err = dgalois.Capture(func() { labels = runPush(cluster, g, pt, prog, roundG, activeG) })
	return labels, cluster.Stats(), err
}

func runPush(cluster *dgalois.Cluster, g gview, pt *partition.Partitioning, prog PushProgram, roundG, activeG *obs.Gauge) []uint64 {
	topo := gluon.NewTopology(pt)
	n := g.NumVertices()

	type hostState struct {
		part     *partition.Part
		labels   []uint64
		active   []uint32
		inActive *bitset.Set
		dirty    *bitset.Set
		out      *bitset.Set
		marks    *gluon.Marks // improved proxies, until their sync ships them
	}
	states := make([]*hostState, pt.NumHosts)
	cluster.Compute(func(h int) {
		p := pt.Parts[h]
		np := p.NumProxies()
		st := &hostState{
			part:     p,
			labels:   make([]uint64, np),
			inActive: bitset.New(np),
			dirty:    bitset.New(np),
			out:      bitset.New(np),
			marks:    topo.NewMarks(h),
		}
		for l, gid := range p.GlobalID {
			label, active := prog.Init(gid)
			st.labels[l] = label
			if active {
				st.active = append(st.active, uint32(l))
			}
		}
		states[h] = st
	})

	for r := 1; ; r++ {
		cluster.BeginRound()
		roundG.Set(int64(r))
		activity := make([]bool, pt.NumHosts)
		cluster.Compute(func(h int) {
			st := states[h]
			st.dirty.Reset()
			st.out.Reset()
			local := st.part.Local
			for _, u := range st.active {
				cand := prog.Relax(st.labels[u])
				for _, w := range local.OutNeighbors(u) {
					if prog.Better(cand, st.labels[w]) {
						st.labels[w] = cand
						st.dirty.Set(int(w))
						st.marks.Mark(w)
					}
				}
			}
			st.active = st.active[:0]
			st.inActive.Reset()
			activity[h] = st.dirty.Any()
		})
		var local int64
		for _, a := range activity {
			if a {
				local++
			}
		}
		// Reduce dirty mirrors to masters with the Better reduction. The
		// exchange carries the hosts' activity: a sum of zero is global
		// quiescence.
		if cluster.ExchangeSum(local,
			func(from, to int, w *gluon.Writer) {
				st := states[from]
				st.marks.EncodeReduce(w, to, func(lid uint32, w *gluon.Writer) { w.U64(st.labels[lid]) })
			},
			func(to, from int, data []byte, dec *gluon.Decoder) {
				st := states[to]
				list := topo.MasterList(from, to)
				dec.DecodeUpdates(len(list), data, func(pos int, r *gluon.Reader) {
					lid := list[pos]
					if v := r.U64(); prog.Better(v, st.labels[lid]) {
						st.labels[lid] = v
						st.out.Set(int(lid))
						st.marks.Mark(lid)
					}
				})
			},
		) == 0 {
			activeG.Set(0)
			break
		}

		// Masters improved locally broadcast too (they were marked as
		// they improved); activate the changed masters.
		cluster.Compute(func(h int) {
			st := states[h]
			st.dirty.ForEach(func(l int) bool {
				if st.part.IsMaster[l] {
					st.out.Set(l)
				}
				return true
			})
			st.out.ForEach(func(l int) bool {
				if !st.inActive.Test(l) {
					st.inActive.Set(l)
					st.active = append(st.active, uint32(l))
				}
				return true
			})
		})

		// Broadcast master values to all mirrors; changed mirrors
		// activate.
		cluster.Exchange(
			func(from, to int, w *gluon.Writer) {
				st := states[from]
				st.marks.EncodeBroadcast(w, to, func(lid uint32, w *gluon.Writer) { w.U64(st.labels[lid]) })
			},
			func(to, from int, data []byte, dec *gluon.Decoder) {
				st := states[to]
				list := topo.MirrorList(to, from)
				dec.DecodeUpdates(len(list), data, func(pos int, r *gluon.Reader) {
					lid := list[pos]
					v := r.U64()
					if v != st.labels[lid] {
						st.labels[lid] = v
						if !st.inActive.Test(int(lid)) {
							st.inActive.Set(int(lid))
							st.active = append(st.active, lid)
						}
					}
				})
			},
		)

		// Published after the broadcast rebuilt each host's active list:
		// the gauge tracks the frontier the next round will push from.
		var active int64
		for _, st := range states {
			if st == nil {
				continue
			}
			active += int64(len(st.active))
		}
		activeG.Set(active)
	}

	out := make([]uint64, n)
	for _, st := range states {
		if st == nil {
			continue
		}
		for l, gid := range st.part.GlobalID {
			if st.part.IsMaster[l] {
				out[gid] = st.labels[l]
			}
		}
	}
	return out
}

// gview is the slice of graph.Graph the package needs; breaking the
// dependency keeps vprog usable in tests with lightweight fakes.
type gview interface {
	NumVertices() int
}

// validateHosts panics unless every global vertex has exactly one
// master (defensive check used by PageRank's normalization).
func validateHosts(pt *partition.Partitioning, n int) {
	seen := make([]bool, n)
	for _, p := range pt.Parts {
		for l, gid := range p.GlobalID {
			if p.IsMaster[l] {
				if seen[gid] {
					panic(fmt.Sprintf("vprog: vertex %d has two masters", gid))
				}
				seen[gid] = true
			}
		}
	}
}
