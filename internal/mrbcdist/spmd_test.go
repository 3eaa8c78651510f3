package mrbcdist

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"mrbc/internal/brandes"
	"mrbc/internal/dgalois"
	"mrbc/internal/elastic"
	"mrbc/internal/gen"
	"mrbc/internal/gluon"
	"mrbc/internal/graph"
	"mrbc/internal/obs"
	"mrbc/internal/partition"
)

// countingTransport counts the calls one SPMD process makes into its
// transport. Like benchmark/'s timedTransport it is a wrapper dgalois
// cannot see through, so whatever the engine needs of a transport it
// must find on gluon.Transport itself.
type countingTransport struct {
	gluon.Transport
	sends, reduces atomic.Int64
}

func (c *countingTransport) Send(exchange, from, to int, buf []byte) error {
	c.sends.Add(1)
	return c.Transport.Send(exchange, from, to, buf)
}

func (c *countingTransport) AllReduce(host int, local int64, op gluon.ReduceOp) (int64, error) {
	c.reduces.Add(1)
	return c.Transport.AllReduce(host, local, op)
}

// TestSPMDMatchesInProcess runs a job as four SPMD processes over a
// loopback TCP mesh, strictly BSP and with four batches in flight, and
// holds the result against the in-process run: the same score bits and
// the same Rounds, Bytes, Messages and Encoding. An MRBC batch makes no
// all-reduce: its quiescence vote rides the forward exchanges and its
// backward depth is its forward depth. Of Rounds, F = (Rounds −
// batches)/2 are active forward rounds, as many are backward rounds,
// and each batch has one idle last forward round; a forward round's
// reduce carries the vote, votes = F + batches of them. Every exchange
// sends one record per link of its own set: for the backward reduce the
// links a mirror with local out-edges reduces on (none under the edge
// cut), for the backward broadcast the links a mirror with local
// in-edges is broadcast to, and for the forward broadcast the partners
// (8 of 12 on the 2×2 Cartesian grid, where a host shares no proxy with
// its diagonal). Where the topology relays the vote (gluon's VoteLegs 2,
// the Cartesian cut), round 1's reduce sends on the partner links and
// later reduces on the proposal links (ReaderLinks transposed), and the
// forward broadcast runs in the idle round too, to carry the vote on:
// batches·partners + F·proposals + votes·partners + F·(partial + reader)
// records in 2·Rounds exchanges. Otherwise every reduce sends on all 12
// links — one leg under the RMAT edge cut, whose proposal links are every
// link, and the every-link fallback on the road grid's edge cut, whose
// four hosts form a chain that two legs do not span —, and only active
// rounds broadcast: votes·12 + F·(partners + partial + reader) records
// in 2·Rounds − batches exchanges. The mesh's Control tally is the
// records among them that were empty markers plus the standalone acks —
// the few that no record carried.
func TestSPMDMatchesInProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("localhost TCP cluster; skipped in -short")
	}
	const hosts, batch = 4, 4
	rmat, road := gen.RMAT(7, 8, 1), gen.RoadGrid(5, 5, 1)
	for _, c := range []struct {
		name  string // subtest prefix, empty for the Cartesian cut
		g     *graph.Graph
		pt    *partition.Partitioning
		links [4]int // partner, partial, reader and proposal links
		legs  int
	}{
		{"", rmat, partition.CartesianCut(rmat, hosts), [4]int{8, 4, 4, 4}, 2},
		{"edgecut/", rmat, partition.EdgeCut(rmat, hosts), [4]int{12, 0, 12, 12}, 1},
		{"road/", road, partition.EdgeCut(road, hosts), [4]int{6, 0, 6, 6}, 0},
	} {
		g, pt := c.g, c.pt
		sources := brandes.FirstKSources(g, 0, min(32, g.NumVertices()))
		batches := (len(sources) + batch - 1) / batch
		topo := gluon.NewTopology(pt)
		links := [4]int{topo.PartnerLinks().Len(), topo.PartialLinks().Len(), topo.ReaderLinks().Len(), topo.ProposalLinks().Len()}
		if links != c.links || topo.VoteLegs() != c.legs {
			t.Fatalf("%q: %v partner, partial, reader and proposal links and %d vote legs, want %v and %d",
				c.name, links, topo.VoteLegs(), c.links, c.legs)
		}
		want, wantStats := Run(g, pt, sources, Options{BatchSize: batch})
		for _, depth := range []int{1, 4} {
			t.Run(fmt.Sprintf("%sdepth%d", c.name, depth), func(t *testing.T) {
				mesh := tcpViews(t, hosts)
				defer closeViews(mesh)
				views := make([]*countingTransport, hosts)
				perHost := make([][]float64, hosts)
				stats := make([]dgalois.Stats, hosts)
				errs := make([]error, hosts)
				var wg sync.WaitGroup
				for h := range views {
					views[h] = &countingTransport{Transport: mesh[h]}
					wg.Add(1)
					go func(h int) {
						defer wg.Done()
						perHost[h], stats[h], errs[h] = RunChecked(g, pt, sources,
							Options{BatchSize: batch, PipelineDepth: depth, Transport: views[h]})
					}(h)
				}
				wg.Wait()
				got := make([]float64, len(want))
				var sum dgalois.Stats
				var sends, control int64
				for h, err := range errs {
					if err != nil {
						t.Fatalf("host %d: %v", h, err)
					}
					for v, s := range perHost[h] {
						got[v] += s
					}
					if stats[h].Rounds != wantStats.Rounds {
						t.Errorf("host %d ran %d rounds, in-process %d", h, stats[h].Rounds, wantStats.Rounds)
					}
					sum.Bytes += stats[h].Bytes
					sum.Messages += stats[h].Messages
					sum.Encoding.Dense += stats[h].Encoding.Dense
					sum.Encoding.Sparse += stats[h].Encoding.Sparse
					sum.Encoding.All += stats[h].Encoding.All
					if n := views[h].reduces.Load(); n != 0 {
						t.Errorf("host %d made %d all-reduces, want none", h, n)
					}
					sends += views[h].sends.Load()
					for to := 0; to < hosts; to++ {
						control += mesh[h].Stats(h, to).Control
					}
				}
				for v := range want {
					if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
						t.Fatalf("vertex %d: SPMD score %x, in-process %x", v, math.Float64bits(got[v]), math.Float64bits(want[v]))
					}
				}
				if sum.Bytes != wantStats.Bytes || sum.Messages != wantStats.Messages || sum.Encoding != wantStats.Encoding {
					t.Errorf("SPMD volume %d B / %d msgs / %+v, in-process %d / %d / %+v",
						sum.Bytes, sum.Messages, sum.Encoding, wantStats.Bytes, wantStats.Messages, wantStats.Encoding)
				}
				nb := int64(batches)
				F := (int64(wantStats.Rounds) - nb) / 2
				votes := F + nb
				partners, partials, readers, proposals := int64(links[0]), int64(links[1]), int64(links[2]), int64(links[3])
				exchanges, want := 2*int64(wantStats.Rounds)-nb, votes*hosts*(hosts-1)+F*(partners+partials+readers)
				if c.legs == 2 {
					exchanges, want = 2*int64(wantStats.Rounds), nb*partners+F*proposals+votes*partners+F*(partials+readers)
				}
				if sends != want {
					t.Errorf("the mesh sent %d records, want %d (%d batches, %d active and %d vote rounds, links %v, %d vote legs)",
						sends, want, nb, F, votes, links, c.legs)
				}
				markers := sends - sum.Messages
				if acks := control - markers; acks < 0 || acks > exchanges/4 {
					t.Errorf("Control %d = %d empty markers + %d: want a few standalone acks and no other control record", control, markers, acks)
				}
			})
		}
	}
}

// TestBackwardDepthPanicsPastForwardDepth injects the one state the
// derived backward depth rules out: a host scheduled deeper than the
// forward phase ran. The host is the source's master, one SPMD host over
// its view of a mesh whose peers never run: no exchange happens.
func TestBackwardDepthPanicsPastForwardDepth(t *testing.T) {
	g := gen.RMAT(5, 4, 1)
	pt := partition.CartesianCut(g, 2)
	mesh := gluon.NewMemTransport(pt.NumHosts)
	defer mesh.Close()
	cluster := dgalois.NewClusterOpts(pt.NumHosts, dgalois.ClusterOptions{Transport: mesh.View(int(pt.MasterOf[0]))})
	j := &job{cluster: cluster, topo: gluon.NewTopology(pt), prog: newProgressGauges(nil),
		sources: []uint32{0}, opts: Options{BatchSize: 1}}
	b := j.newBatch(0, nil)
	b.st = (&statePool{kmax: 1}).makeState(cluster, b.topo, b.batch)
	// No forward round ran, so the source's own pair was never
	// synchronized (τ = 0) and lands in backward round R − 0 + 1.
	b.fwd = 3
	b.st.engine.StartBackward(b.fwd)
	defer func() {
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, "4 backward rounds after 3 forward rounds") {
			t.Fatalf("backwardDepth panicked %q", msg)
		}
	}()
	t.Fatalf("backwardDepth returned %d", b.backwardDepth())
}

// TestInProcessRunReportsOnce pins what an in-process run — four SPMD
// host goroutines over the mesh — reports for the whole run: one batch
// summary per batch, one checkpoint event per boundary, one exchange
// slice per exchange, every one of them cluster-wide (Host −1), no
// transport event, and the run-wide counters and histograms once (host
// 0's), while every host emits its own compute slice in every compute
// phase and its own volume; and no host goroutine outlives the run.
func TestInProcessRunReportsOnce(t *testing.T) {
	g := gen.RMAT(6, 8, 42)
	pt := partition.CartesianCut(g, 4)
	sources := brandes.FirstKSources(g, 0, 16)
	tr := obs.NewTrace(1<<16, obs.LevelPhase)
	reg := obs.NewRegistry()
	base := runtime.NumGoroutine()
	_, stats, err := RunChecked(g, pt, sources, Options{BatchSize: 4, Trace: tr, Metrics: reg, Checkpoint: elastic.NewMemSink()})
	if err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, base, "a successful run")
	if tr.Dropped() > 0 {
		t.Fatalf("trace dropped %d events", tr.Dropped())
	}
	batches, checkpoints := map[int32]int{}, map[int32]int{}
	exchanges := map[int64]int{}
	compute := map[int64]map[int32]bool{}
	for _, e := range tr.Events() {
		switch {
		case e.Kind == obs.KindTransport:
			t.Fatalf("transport event %+v in an in-process run", e)
		case e.Kind == obs.KindBatch:
			batches[e.Batch]++
		case e.Kind == obs.KindElastic && e.Phase == obs.PhaseCheckpoint:
			checkpoints[e.Batch]++
		case e.Kind == obs.KindPhase && e.Phase == obs.PhaseExchange:
			exchanges[e.Seq]++
		case e.Kind == obs.KindPhase && e.Phase == obs.PhaseCompute:
			if compute[e.Seq] == nil {
				compute[e.Seq] = map[int32]bool{}
			}
			compute[e.Seq][e.Host] = true
		default:
			continue
		}
		if e.Kind != obs.KindPhase || e.Phase != obs.PhaseCompute {
			if e.Host != -1 {
				t.Errorf("run-wide event %+v names host %d", e, e.Host)
			}
		}
	}
	for b := int32(0); b < 4; b++ {
		if batches[b] != 1 || checkpoints[b+1] != 1 {
			t.Errorf("batch %d: %d summaries and %d checkpoint events, want 1 each", b, batches[b], checkpoints[b+1])
		}
	}
	if len(batches) != 4 || len(checkpoints) != 4 {
		t.Errorf("%d batch summaries and %d checkpoint events, want 4 each", len(batches), len(checkpoints))
	}
	for seq, n := range exchanges {
		if n != 1 {
			t.Errorf("exchange %d has %d slices, want 1", seq, n)
		}
	}
	for seq, hosts := range compute {
		if len(hosts) != pt.NumHosts {
			t.Errorf("compute phase %d: slices from %d hosts, want %d", seq, len(hosts), pt.NumHosts)
		}
	}
	snap := reg.Snapshot()
	if got := snap.Counters["dgalois_rounds_total"]; got != int64(stats.Rounds) {
		t.Errorf("dgalois_rounds_total = %d, want the run's %d rounds", got, stats.Rounds)
	}
	if got := snap.Counters["dgalois_bytes_total"]; got != stats.Bytes {
		t.Errorf("dgalois_bytes_total = %d, want the run's %d bytes", got, stats.Bytes)
	}
	if got := snap.Histograms["dgalois_compute_phase_seconds"].Count; got != int64(len(compute)) {
		t.Errorf("dgalois_compute_phase_seconds counted %d phases, want %d", got, len(compute))
	}
	if got := snap.Histograms["dgalois_exchange_seconds"].Count; got != int64(len(exchanges)) {
		t.Errorf("dgalois_exchange_seconds counted %d exchanges, want %d", got, len(exchanges))
	}
}
