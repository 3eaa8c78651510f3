package main

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"mrbc/internal/brandes"
	"mrbc/internal/core"
	"mrbc/internal/dgalois"
	"mrbc/internal/gen"
	"mrbc/internal/gluon"
	"mrbc/internal/graph"
	"mrbc/internal/mrbcdist"
	"mrbc/internal/obs"
	"mrbc/internal/partition"
	"mrbc/internal/sbbc"
)

// hosts is the data decomposition of every distributed workload: four
// partitions multiplexed over GOMAXPROCS threads, not four threads.
const hosts = 4

type engine int

const (
	engMRBC   engine = iota // mrbcdist.RunChecked over a partitioned graph
	engShared               // core.BC on one host, no distribution layers
	engSBBC                 // sbbc.RunOptsChecked, the paper's baseline
)

// size is one input of a workload: the generator call and how many
// sources it is run on.
type size struct {
	graph   func(seed int64) *graph.Graph
	sources int
}

// workload is one named benchmark input. Names are fixed: issues and
// result files cite them.
type workload struct {
	name   string
	why    string
	engine engine
	tcp    bool // SPMD over localhost TCP instead of the in-process transport
	batch  int
	depth  int // mrbcdist.Options.PipelineDepth
	full   size
	smoke  size // -smoke: seconds-scale sanity input, never recorded
}

var workloads = []workload{
	{
		name: "rmat_mem_h4", engine: engMRBC, batch: 32, depth: 1,
		why:   "power-law, few fat rounds: core.Engine and the mrbcdist map handlers dominate, transport is idle",
		full:  size{func(s int64) *graph.Graph { return gen.RMAT(13, 14, s) }, 64},
		smoke: size{func(s int64) *graph.Graph { return gen.RMAT(8, 8, s) }, 16},
	},
	{
		name: "road_mem_h4", engine: engMRBC, batch: 16, depth: 1,
		why:   "degree<=4, diameter~250: hundreds of near-empty rounds, per-round dispatch and bookkeeping dominate",
		full:  size{func(s int64) *graph.Graph { return gen.RoadGrid(128, 128, s) }, 32},
		smoke: size{func(s int64) *graph.Graph { return gen.RoadGrid(12, 12, s) }, 8},
	},
	{
		name: "rmat_tcp_h4", engine: engMRBC, tcp: true, batch: 4, depth: 1,
		why:   "~2300 latency-bound ~1.7 KB exchanges over localhost TCP at strict BSP: gluon/tcp.go is the only layer that differs from in-process",
		full:  size{func(s int64) *graph.Graph { return gen.RMAT(11, 7, s) }, 256},
		smoke: size{func(s int64) *graph.Graph { return gen.RMAT(7, 7, s) }, 16},
	},
	{
		name: "rmat_tcp_h4_d4", engine: engMRBC, tcp: true, batch: 4, depth: 4,
		why:   "the rmat_tcp_h4 job with four exchanges in flight: shows a transport change that helps BSP but hurts overlapped exchanges, or the reverse",
		full:  size{func(s int64) *graph.Graph { return gen.RMAT(11, 7, s) }, 256},
		smoke: size{func(s int64) *graph.Graph { return gen.RMAT(7, 7, s) }, 16},
	},
	{
		name: "rmat_shared", engine: engShared, batch: 32,
		why:   "core.BC on the rmat_mem_h4 graph: the control that must not move when only partition, gluon, dgalois or mrbcdist change",
		full:  size{func(s int64) *graph.Graph { return gen.RMAT(13, 14, s) }, 256},
		smoke: size{func(s int64) *graph.Graph { return gen.RMAT(8, 8, s) }, 32},
	},
	{
		name: "web_sbbc_h4", engine: engSBBC,
		why:   "the baseline on the same substrate used the opposite way: ~20000 one-source rounds, mostly empty exchanges, ~560-byte messages",
		full:  size{func(s int64) *graph.Graph { return gen.WebCrawl(11, 8, 3, 80, s) }, 128},
		smoke: size{func(s int64) *graph.Graph { return gen.WebCrawl(7, 8, 2, 10, s) }, 16},
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// distributed reports whether the workload runs on the partitioned
// substrate (partition, gluon, dgalois).
func (w workload) distributed() bool { return w.engine != engShared }

// job is a workload with its inputs built from a seed.
type job struct {
	w       workload
	g       *graph.Graph
	sources []uint32
	oracle  []float64 // brandes.Sequential on the same sources
	pt      *partition.Partitioning
}

// sourceChunk is the paper's contiguous source chunk (§5.1). It always
// starts at vertex 0: the generators correlate vertex ID with degree
// (R-MAT) or position (grid corner, crawl core), so a chunk placed by
// the seed would make a run's cost swing by 40% from seed to seed and
// drown every bound. The seed varies the graph instance instead.
func sourceChunk(g *graph.Graph, k int) []uint32 {
	return brandes.FirstKSources(g, 0, min(k, g.NumVertices()))
}

// counts are the paper-model costs that must repeat exactly from run
// to run of one input.
type counts struct {
	Rounds   int   `json:"rounds"`
	Bytes    int64 `json:"comm_bytes"`
	Messages int64 `json:"comm_messages"`
}

// runResult is what one run of a job hands back to the harness.
type runResult struct {
	scores []float64
	counts counts
	cost   meter
	stats  dgalois.Stats      // zero for engShared
	core   core.RunStats      // engShared only
	chans  gluon.ChannelStats // Σ over channels, TCP only
	// Time a host spent inside gluon.Transport calls, mean over hosts;
	// recorded only on traced TCP runs.
	sendNs, gatherNs, reduceNs int64
}

// run executes the job once and meters the engine call: from the call
// to the scores in hand. traces is nil with tracing off; otherwise it
// holds one ring for an in-process run and one per host for SPMD.
func (j *job) run(traces []*obs.Trace) (runResult, error) {
	if j.w.tcp {
		return j.runSPMD(traces)
	}
	var tr *obs.Trace
	if len(traces) > 0 {
		tr = traces[0]
	}
	var r runResult
	var err error
	r.cost.start()
	switch j.w.engine {
	case engShared:
		r.scores, r.core = core.BC(j.g, j.sources, core.Options{BatchSize: j.w.batch})
	case engSBBC:
		r.scores, r.stats, err = sbbc.RunOptsChecked(j.g, j.pt, j.sources, sbbc.Options{Trace: tr})
	default:
		r.scores, r.stats, err = j.runMRBC(nil, tr)
	}
	r.cost.stop()
	r.counts = counts{r.stats.Rounds, r.stats.Bytes, r.stats.Messages}
	if j.w.engine == engShared {
		r.counts.Rounds = r.core.Rounds()
	}
	return r, err
}

func (j *job) runMRBC(transport gluon.Transport, tr *obs.Trace) ([]float64, dgalois.Stats, error) {
	return mrbcdist.RunChecked(j.g, j.pt, j.sources, mrbcdist.Options{
		BatchSize: j.w.batch, PipelineDepth: j.w.depth, Transport: transport, Trace: tr})
}

// runSPMD runs the job as four SPMD goroutines over a localhost TCP
// mesh, the way four bcd processes would, and sums the per-host score
// vectors (disjoint by master ownership, so the sum is exact). The mesh
// is brought up before and torn down after the timed region.
func (j *job) runSPMD(traces []*obs.Trace) (runResult, error) {
	var r runResult
	mesh, err := bringUpTCP()
	if err != nil {
		return r, err
	}
	defer closeAll(mesh)
	views := make([]gluon.Transport, hosts)
	timers := make([]*timedTransport, hosts)
	for h, t := range mesh {
		views[h] = t
		if traces != nil {
			timers[h] = &timedTransport{Transport: t, stream: t}
			views[h] = timers[h]
		}
	}
	perHost := make([][]float64, hosts)
	stats := make([]dgalois.Stats, hosts)
	errs := make([]error, hosts)
	r.cost.start()
	var wg sync.WaitGroup
	for h := 0; h < hosts; h++ {
		wg.Add(1)
		go func(h int) {
			defer wg.Done()
			var tr *obs.Trace
			if traces != nil {
				tr = traces[h]
			}
			perHost[h], stats[h], errs[h] = j.runMRBC(views[h], tr)
		}(h)
	}
	wg.Wait()
	r.scores = make([]float64, j.g.NumVertices())
	for _, s := range perHost {
		for v, x := range s {
			r.scores[v] += x
		}
	}
	r.cost.stop()
	for h, err := range errs {
		if err != nil {
			return r, fmt.Errorf("host %d: %w", h, err)
		}
	}
	r.stats = stats[0]
	for h := 1; h < hosts; h++ {
		s := stats[h]
		if s.Rounds != r.stats.Rounds {
			return r, fmt.Errorf("host %d ran %d rounds, host 0 ran %d: SPMD lockstep broken", h, s.Rounds, r.stats.Rounds)
		}
		r.stats.Bytes += s.Bytes
		r.stats.Messages += s.Messages
		r.stats.Encoding.Add(s.Encoding)
		r.stats.ComputeTime = max(r.stats.ComputeTime, s.ComputeTime)
		r.stats.CommTime = max(r.stats.CommTime, s.CommTime)
		r.stats.HiddenTime = max(r.stats.HiddenTime, s.HiddenTime)
	}
	r.counts = counts{r.stats.Rounds, r.stats.Bytes, r.stats.Messages}
	for h, t := range mesh {
		for to := 0; to < hosts; to++ {
			r.chans.Add(t.Stats(h, to))
		}
		if tt := timers[h]; tt != nil {
			r.sendNs += tt.sendNs.Load() / hosts
			r.gatherNs += tt.gatherNs.Load() / hosts
			r.reduceNs += tt.reduceNs.Load() / hosts
		}
	}
	return r, nil
}

// bringUpTCP listens on four loopback ports, starts one TCPTransport
// per host and runs one all-reduce, which dials every peer in both
// directions: the mesh is connected before the first round.
func bringUpTCP() ([]*gluon.TCPTransport, error) {
	lns := make([]net.Listener, hosts)
	addrs := make([]string, hosts)
	for h := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:h] {
				l.Close()
			}
			return nil, fmt.Errorf("listen host %d: %w", h, err)
		}
		lns[h], addrs[h] = ln, ln.Addr().String()
	}
	mesh := make([]*gluon.TCPTransport, hosts)
	for h := range mesh {
		t, err := gluon.NewTCPTransport(h, addrs, lns[h], gluon.TCPOptions{})
		if err != nil {
			closeAll(mesh[:h])
			for _, l := range lns[h:] {
				l.Close()
			}
			return nil, fmt.Errorf("transport host %d: %w", h, err)
		}
		mesh[h] = t
	}
	errs := make([]error, hosts)
	var wg sync.WaitGroup
	for h, t := range mesh {
		wg.Add(1)
		go func(h int, t *gluon.TCPTransport) {
			defer wg.Done()
			_, errs[h] = t.AllReduce(h, 0, gluon.ReduceSum)
		}(h, t)
	}
	wg.Wait()
	for h, err := range errs {
		if err != nil {
			closeAll(mesh)
			return nil, fmt.Errorf("connect host %d: %w", h, err)
		}
	}
	return mesh, nil
}

func closeAll(mesh []*gluon.TCPTransport) {
	for _, t := range mesh {
		t.Close() // TCPTransport.Close always returns nil
	}
}

// timedTransport is the harness's span around every call dgalois makes
// into a remote gluon.Transport during a traced run. It must not wrap
// the in-process MemTransport: dgalois recognises that one by type.
type timedTransport struct {
	gluon.Transport
	stream                     gluon.Streamer
	sendNs, gatherNs, reduceNs atomic.Int64
}

func (t *timedTransport) Send(exchange, from, to int, buf []byte) error {
	t0 := time.Now()
	err := t.Transport.Send(exchange, from, to, buf)
	t.sendNs.Add(int64(time.Since(t0)))
	return err
}

func (t *timedTransport) Gather(exchange, to int) ([][]byte, error) {
	t0 := time.Now()
	bufs, err := t.Transport.Gather(exchange, to)
	t.gatherNs.Add(int64(time.Since(t0)))
	return bufs, err
}

func (t *timedTransport) GatherFrom(exchange, to, from int) ([]byte, error) {
	t0 := time.Now()
	buf, err := t.stream.GatherFrom(exchange, to, from)
	t.gatherNs.Add(int64(time.Since(t0)))
	return buf, err
}

func (t *timedTransport) AllReduce(host int, local int64, op gluon.ReduceOp) (int64, error) {
	t0 := time.Now()
	v, err := t.Transport.AllReduce(host, local, op)
	t.reduceNs.Add(int64(time.Since(t0)))
	return v, err
}

// setUp does what a distributed run needs before its first round, each
// part in a span of its own, and returns the parts' times:
// partition.CartesianCut, gluon.NewTopology, and transport bring-up.
// The job keeps the partitioning. The shared-memory control has none of
// these; its set-up is the in-edge index plus one engine
// (core.NewEngine on a graph that has no in-edge view yet).
func (j *job) setUp(spans *spanLog) (cut, topo, up time.Duration, err error) {
	if !j.w.distributed() {
		var edges [][2]uint32
		j.g.Edges(func(u, v uint32) { edges = append(edges, [2]uint32{u, v}) })
		fresh := graph.FromEdges(j.g.NumVertices(), edges)
		return 0, 0, spans.in("core.NewEngine", 0, func() { core.NewEngine(fresh, j.w.batch) }), nil
	}
	cut = spans.in("partition.CartesianCut", 0, func() { j.pt = partition.CartesianCut(j.g, hosts) })
	topo = spans.in("gluon.NewTopology", 0, func() { gluon.NewTopology(j.pt) })
	var mesh []*gluon.TCPTransport
	up = spans.in("transport bring-up", 0, func() {
		if j.w.tcp {
			mesh, err = bringUpTCP()
		} else {
			gluon.NewMemTransportWindow(hosts, max(j.w.depth, 1))
		}
	})
	closeAll(mesh)
	return cut, topo, up, err
}

// call names the engine entry point a run of the workload goes through.
func (w workload) call() string {
	switch w.engine {
	case engShared:
		return "core.BC"
	case engSBBC:
		return "sbbc.RunOptsChecked"
	}
	return "mrbcdist.RunChecked"
}
