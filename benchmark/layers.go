package main

import (
	"fmt"
	"math"
	"time"

	"mrbc/internal/core"
	"mrbc/internal/mrbcdist"
	"mrbc/internal/obs"
	"mrbc/internal/sbbc"
)

// split is what one traced run's phase events say about where the
// cluster spent its time, as a timeline: for every phase dispatch
// (Event.Seq) the slowest host's slice, summed. An in-process cluster
// has one timeline, the coordinator's. SPMD hosts each have their own
// (one ring per host, one local host per ring); the split is then the
// mean over hosts, and what a host idles waiting for slower peers is
// inside its exchange slices, because it blocks in Transport.Gather*.
type split struct {
	computeNs  int64 // compute slices
	packNs     int64 // pack slices (of exchanges that sent data)
	unpackNs   int64 // unpack slices (of exchanges that received data)
	exchangeNs int64 // whole exchange slices less their hidden part
	hiddenNs   int64 // exchange wait the pipeline overlapped with compute
	// hostComputeNs sums every host's compute slices; barrierNs sums
	// every host's idle wait at the compute barrier (the slowest
	// host's slice minus its own), over the merged rings.
	hostComputeNs int64
	barrierNs     int64
	computePhases int
	exchanges     int
	imbalance     float64
	events        int64
	dropped       int64
}

// attributedNs is the part of a run's wall the cluster's phases cover.
func (s split) attributedNs() int64 { return s.computeNs + s.exchangeNs }

func analyze(traces []*obs.Trace) split {
	type dispatch struct {
		compute, pack, unpack, exchange, hidden int64
		isCompute, isExchange                   bool
	}
	var s split
	var slowest []int64 // per Seq, the slowest compute slice over all rings
	var imb obs.ImbalanceAccum
	for _, t := range traces {
		s.events += t.Emitted()
		s.dropped += t.Dropped()
		ev := t.Events()
		var maxSeq int64
		for _, e := range ev {
			maxSeq = max(maxSeq, e.Seq)
		}
		ds := make([]dispatch, maxSeq+1)
		if grow := len(ds) - len(slowest); grow > 0 {
			slowest = append(slowest, make([]int64, grow)...)
		}
		for _, e := range ev {
			if e.Kind != obs.KindPhase {
				continue
			}
			d := &ds[e.Seq]
			switch e.Phase {
			case obs.PhaseCompute:
				d.isCompute = true
				d.compute = max(d.compute, e.DurNs)
				slowest[e.Seq] = max(slowest[e.Seq], e.DurNs)
				s.hostComputeNs += e.DurNs
				imb.Observe(e)
			case obs.PhasePack:
				d.pack = max(d.pack, e.DurNs)
			case obs.PhaseUnpack:
				d.unpack = max(d.unpack, e.DurNs)
			case obs.PhaseExchange:
				d.isExchange = true
				d.exchange = max(d.exchange, e.DurNs-e.HiddenNs)
				d.hidden = max(d.hidden, e.HiddenNs)
			}
		}
		s.computePhases, s.exchanges = 0, 0 // every ring sees every dispatch
		for _, d := range ds {
			if d.isCompute {
				s.computePhases++
			}
			if d.isExchange {
				s.exchanges++
			}
			s.computeNs += d.compute
			s.packNs += d.pack
			s.unpackNs += d.unpack
			s.exchangeNs += d.exchange
			s.hiddenNs += d.hidden
		}
	}
	n := int64(max(len(traces), 1))
	s.computeNs /= n
	s.packNs /= n
	s.unpackNs /= n
	s.exchangeNs /= n
	s.hiddenNs /= n
	for _, d := range slowest {
		s.barrierNs += hosts * d
	}
	s.barrierNs -= s.hostComputeNs
	s.imbalance = imb.Report().Mean
	return s
}

// newTraces allocates the rings of a traced run: one for an in-process
// cluster, one per SPMD host. rounds sizes them so nothing is dropped:
// a round dispatches at most three compute phases and two exchanges,
// under 100 events over four hosts.
func newTraces(j *job, rounds int) []*obs.Trace {
	if !j.w.distributed() {
		return nil
	}
	n := 1
	if j.w.tcp {
		n = hosts
	}
	traces := make([]*obs.Trace, n)
	for h := range traces {
		traces[h] = obs.NewTrace(128*rounds+1024, obs.LevelPhase)
	}
	return traces
}

// tracedRun is one run's numbers the layer metrics are medians of.
type tracedRun struct {
	r     runResult
	split split
}

// measureLayers is the traced measurement: tracing-off and traced runs
// alternate (their ratio is the tracing overhead), then the reference
// engines run on the same input, then the probes.
func measureLayers(cfg config) (outcome, error) {
	spans := newSpanLog()
	set := metricSet{}
	j, genS, brandesS := buildJob(cfg, spans)
	w := cfg.w
	set.put("gen.build_s", genS)
	set.put("graph.vertices", float64(j.g.NumVertices()))
	set.put("graph.edges", float64(j.g.NumEdges()))
	set.put("brandes.seq_wall_s", brandesS)

	n := 5
	if cfg.smoke {
		n = 1
	}
	cut, topo, up, err := repeatSetUp(j, spans, n)
	if err != nil {
		return outcome{}, err
	}
	if w.distributed() {
		set.sampled("partition.cut_s", cut)
		set.sampled("gluon.topology_s", topo)
		set.sampled("gluon.transport_up_s", up)
		proxies, maxEdges := 0, int64(0)
		for _, p := range j.pt.Parts {
			proxies += p.NumProxies()
			maxEdges = max(maxEdges, p.Local.NumEdges())
		}
		set.put("partition.replication", float64(proxies)/float64(j.g.NumVertices()))
		set.put("partition.edge_imbalance", float64(maxEdges)*hosts/float64(j.g.NumEdges()))
	}

	gate := &gatekeeper{j: j, log: cfg.log}
	run := 0
	do := func(traces []*obs.Trace) (runResult, bool) {
		run++
		name := w.call()
		if traces != nil {
			name += " traced"
		}
		var r runResult
		var err error
		spans.in(name, run, func() { r, err = j.run(traces) })
		return r, gate.check(fmt.Sprintf("%s %d", name, run), r, err)
	}
	// done closes the measurement; a run that could not get one good run
	// of each kind, or dropped events, is not correct.
	done := func(complete bool) outcome {
		gate.report(set)
		return outcome{Workload: w.name, Correct: complete && gate.failed == 0,
			Attempted: gate.attempted, Failed: gate.failed,
			Metrics: set.ordered(func(d def) bool { return d.class != bounded })}
	}
	warm, ok := do(nil)
	if !ok {
		return done(false), nil
	}

	// Alternate plain and traced runs for 60% of the budget; the rest
	// is for the references and probes.
	traces := newTraces(j, warm.counts.Rounds)
	var plain []runResult
	var traced []tracedRun
	var dumpEvents []obs.Event
	dumpSpan, dumpSkipped := -1, 0
	pairs := 2
	if cfg.runs > 0 {
		pairs = cfg.runs
	}
	start := time.Now()
	for i := 0; i < pairs || (cfg.runs == 0 && time.Since(start).Seconds() < 0.6*cfg.seconds); i++ {
		if r, ok := do(nil); ok {
			plain = append(plain, r)
		}
		if traces == nil {
			continue
		}
		for _, t := range traces {
			t.Reset()
		}
		if r, ok := do(traces); ok {
			traced = append(traced, tracedRun{r, analyze(traces)})
			if dumpSpan < 0 && cfg.tracePath != "" {
				dumpSpan = spans.last(w.call() + " traced")
				dumpEvents, dumpSkipped = dumpable(traces)
			}
		}
	}
	if len(plain) == 0 || (traces != nil && len(traced) == 0) {
		return done(false), nil
	}
	wall := median(pick(plain, func(r runResult) float64 { return r.cost.wall.Seconds() }))
	runtimeMetrics(set, plain)
	hostCompute := math.NaN()
	if w.distributed() {
		hostCompute = substrateMetrics(set, j, plain, traced, wall)
	}
	refs(set, j, spans, plain[0], wall, brandesS, hostCompute)
	if w.distributed() {
		bpm := int(set["gluon.bytes_per_message"].Value)
		if err := probes(set, w, spans, bpm); err != nil {
			return outcome{}, err
		}
	}
	if cfg.tracePath != "" {
		if err := writeChromeTrace(cfg.tracePath, spans, dumpSpan, dumpEvents, dumpSkipped,
			time.Duration(set["gluon.topology_s"].Value*float64(time.Second))); err != nil {
			return outcome{}, err
		}
	}
	dropped := set["obs.dropped"].Value
	if dropped > 0 {
		fmt.Fprintf(cfg.log, "  obs.dropped = %g: the trace rings overflowed, every layer number above is unsound\n", dropped)
	}
	return done(!(dropped > 0)), nil
}

func pick[T any](xs []T, f func(T) float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = f(x)
	}
	return out
}

func runtimeMetrics(set metricSet, plain []runResult) {
	set.sampled("cpu_s", pick(plain, func(r runResult) float64 { return r.cost.cpu }))
	set.sampled("runtime.gc_cycles", pick(plain, func(r runResult) float64 {
		return float64(r.cost.gcCycles)
	}))
	set.sampled("runtime.gc_pause_ms", pick(plain, func(r runResult) float64 {
		return float64(r.cost.gcPause) / 1e6
	}))
	set.sampled("runtime.mallocs", pick(plain, func(r runResult) float64 {
		return float64(r.cost.mallocs)
	}))
}

// substrateMetrics reports what the distributed layers did: counts and
// the tracing-off cross-check from dgalois.Stats of the plain runs,
// the time split from the traced runs. It returns the Σ-host compute
// seconds, which refs compares with the shared-memory engine.
func substrateMetrics(set metricSet, j *job, plain []runResult, traced []tracedRun, wall float64) float64 {
	w := j.w
	st := plain[0].stats // counts repeat exactly; the gate checked
	set.put("gluon.enc_dense_msgs", float64(st.Encoding.Dense))
	set.put("gluon.enc_sparse_msgs", float64(st.Encoding.Sparse))
	set.put("gluon.enc_all_msgs", float64(st.Encoding.All))
	set.put("gluon.bytes_per_message", float64(st.Bytes)/float64(max(st.Messages, 1)))
	set.sampled("dgalois.stats_compute_s", pick(plain, func(r runResult) float64 { return r.stats.ComputeTime.Seconds() }))
	set.sampled("dgalois.stats_comm_s", pick(plain, func(r runResult) float64 { return r.stats.CommTime.Seconds() }))
	if w.tcp {
		set.sampled("gluon.tcp_retries", pick(plain, func(r runResult) float64 { return float64(r.chans.Retries) }))
		set.sampled("gluon.tcp_retry_bytes", pick(plain, func(r runResult) float64 { return float64(r.chans.RetryBytes) }))
		set.sampled("gluon.tcp_control_records", pick(plain, func(r runResult) float64 { return float64(r.chans.Control) }))
		set.sampled("gluon.tcp_redials", pick(plain, func(r runResult) float64 { return float64(r.chans.Redials) }))
		set.sampled("gluon.tcp_send_s", pick(traced, func(t tracedRun) float64 { return seconds(t.r.sendNs) }))
		set.sampled("gluon.tcp_allreduce_wait_s", pick(traced, func(t tracedRun) float64 { return seconds(t.r.reduceNs) }))
	}

	// dgalois opens the unpack slice before it gathers, so on a remote
	// backend the slice includes the time blocked in Transport.Gather*.
	// The harness's own span around those calls (gatherNs, mean over
	// hosts like the split) moves that share from unpack to
	// exchange_wait; the in-process gather never blocks. What is left
	// of the exchange slices after pack and unpack is dispatch of
	// exchanges that moved no data, and also counts as wait.
	unpack := func(t tracedRun) float64 { return seconds(max(0, t.split.unpackNs-t.r.gatherNs)) }
	set.sampled("dgalois.compute_s", pick(traced, func(t tracedRun) float64 { return seconds(t.split.computeNs) }))
	set.sampled("dgalois.pack_s", pick(traced, func(t tracedRun) float64 { return seconds(t.split.packNs) }))
	set.sampled("dgalois.unpack_s", pick(traced, unpack))
	set.sampled("dgalois.exchange_wait_s", pick(traced, func(t tracedRun) float64 {
		return math.Max(0, seconds(t.split.exchangeNs-t.split.packNs)-unpack(t))
	}))
	set.sampled("dgalois.barrier_s", pick(traced, func(t tracedRun) float64 { return seconds(t.split.barrierNs) }))
	set.sampled("dgalois.hidden_s", pick(traced, func(t tracedRun) float64 { return seconds(t.split.hiddenNs) }))
	set.sampled("dgalois.load_imbalance", pick(traced, func(t tracedRun) float64 { return t.split.imbalance }))
	set.put("dgalois.exchanges", float64(traced[0].split.exchanges))
	set.put("dgalois.compute_phases", float64(traced[0].split.computePhases))

	tracedWall := median(pick(traced, func(t tracedRun) float64 { return t.r.cost.wall.Seconds() }))
	set.ratio("obs.trace_overhead_ratio", tracedWall, wall,
		fmt.Sprintf("traced %.4f s / tracing-off %.4f s", tracedWall, wall))
	set.put("obs.events", float64(traced[0].split.events))
	set.sampled("obs.dropped", pick(traced, func(t tracedRun) float64 { return float64(t.split.dropped) }))

	// The engine's self time: its run span minus the cluster phases
	// inside it (state rebuild, sorting, folding between cluster calls,
	// and on TCP the all-reduces, which are no cluster phase).
	self := pick(traced, func(t tracedRun) float64 {
		return t.r.cost.wall.Seconds() - seconds(t.split.attributedNs())
	})
	share := pick(traced, func(t tracedRun) float64 {
		return 1 - seconds(t.split.attributedNs())/t.r.cost.wall.Seconds()
	})
	prefix := "mrbcdist"
	if w.engine == engSBBC {
		prefix = "sbbc"
	}
	set.sampled(prefix+".unattributed_s", self)
	set.sampled(prefix+".unattributed_share", share)
	set.put("trace.coverage", 1-median(share))

	if w.engine == engMRBC {
		batches := (len(j.sources) + w.batch - 1) / w.batch
		set.put("mrbcdist.batches", float64(batches))
		set.put("mrbcdist.rounds_per_batch", float64(st.Rounds)/float64(batches))
		set.put("mrbcdist.bytes_per_round", float64(st.Bytes)/float64(max(st.Rounds, 1)))
	}
	return median(pick(traced, func(t tracedRun) float64 { return seconds(t.split.hostComputeNs) }))
}

func seconds(ns int64) float64 { return float64(ns) / 1e9 }

// refs runs the other engines on the same graph and sources (and, for
// the distributed ones, the same partition): sequential Brandes (timed
// while building the oracle), SBBC, the shared-memory engine and its
// forward phase alone.
func refs(set metricSet, j *job, spans *spanLog, first runResult, wall, brandesS, hostCompute float64) {
	w := j.w
	once := func(name string, fn func()) float64 { return spans.in(name, 0, fn).Seconds() }

	mrbcWall := wall
	sbbcWall := math.NaN()
	switch {
	case w.engine == engSBBC:
		sbbcWall = wall
		mrbcWall = once("mrbcdist.Run", func() {
			mrbcdist.Run(j.g, j.pt, j.sources, mrbcdist.Options{BatchSize: 32})
		})
	case w.distributed():
		sbbcWall = once("sbbc.Run", func() { sbbc.Run(j.g, j.pt, j.sources) })
	}
	set.put("sbbc.wall_s", sbbcWall)
	set.ratio("ref.mrbc_over_brandes", mrbcWall, brandesS,
		fmt.Sprintf("MRBC %.4f s / brandes.Sequential %.4f s", mrbcWall, brandesS))
	if !math.IsNaN(sbbcWall) {
		set.ratio("ref.mrbc_over_sbbc", mrbcWall, sbbcWall,
			fmt.Sprintf("MRBC %.4f s / sbbc.Run %.4f s", mrbcWall, sbbcWall))
	}

	if w.engine == engSBBC {
		return // core does not execute on the SBBC workload
	}
	cs, shared := first.core, wall
	if w.engine != engShared {
		shared = once("core.BC", func() { _, cs = core.BC(j.g, j.sources, core.Options{BatchSize: w.batch}) })
	}
	set.put("core.shared_wall_s", shared)
	set.put("core.fwd_rounds", float64(cs.ForwardRounds))
	set.put("core.back_rounds", float64(cs.BackwardRounds))
	set.put("core.apsp_wall_s", once("core.APSPBatchOpts", func() {
		for lo := 0; lo < len(j.sources); lo += w.batch {
			core.APSPBatchOpts(j.g, j.sources[lo:min(lo+w.batch, len(j.sources))], core.Options{})
		}
	}))
	if w.distributed() {
		set.ratio("mrbcdist.compute_over_shared", hostCompute, shared,
			fmt.Sprintf("Σ-host compute %.4f s / core.BC %.4f s", hostCompute, shared))
	}
	if w.tcp {
		// The same job on the in-process transport: what TCP costs.
		mem := *j
		mem.w.tcp = false
		var r runResult
		var err error
		spans.in("mrbcdist.Run(mem)", 0, func() { r, err = mem.run(nil) })
		if err == nil {
			set.ratio("gluon.tcp_over_mem_ratio", wall, r.cost.wall.Seconds(),
				fmt.Sprintf("TCP %.4f s / MemTransport %.4f s", wall, r.cost.wall.Seconds()))
		}
	}
}
