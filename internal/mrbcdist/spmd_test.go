package mrbcdist

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"mrbc/internal/brandes"
	"mrbc/internal/dgalois"
	"mrbc/internal/gen"
	"mrbc/internal/gluon"
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
// all-reduce: its quiescence vote rides the forward reduce exchange and
// its backward depth is its forward depth. Every active forward round
// and every backward round is two exchanges and each batch's idle last
// forward round one, 2·Rounds − batches in all; the forward reduces,
// (Rounds + batches)/2 of them, carry the vote and send one record per
// ordered pair. Each of the other (Rounds − batches)/2 round numbers has
// a forward broadcast, a backward reduce and a backward broadcast, and
// each sends one record per link of its own set: the partners — 8 of 12
// on the 2×2 Cartesian grid, where a host shares no proxy with its
// diagonal, and all 12 under the edge cut —, the links a mirror with
// local out-edges reduces on — none under the edge cut —, and the links
// a mirror with local in-edges is broadcast to. The mesh's Control tally
// is the records among them that were empty markers plus the standalone
// acks — the few that no record carried.
func TestSPMDMatchesInProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("localhost TCP cluster; skipped in -short")
	}
	const hosts, batch = 4, 4
	g := gen.RMAT(7, 8, 1)
	sources := brandes.FirstKSources(g, 0, 32)
	batches := (len(sources) + batch - 1) / batch
	for _, c := range []struct {
		name  string // subtest prefix, empty for the Cartesian cut
		pt    *partition.Partitioning
		links [3]int // partner, partial and reader links
	}{
		{"", partition.CartesianCut(g, hosts), [3]int{8, 4, 4}},
		{"edgecut/", partition.EdgeCut(g, hosts), [3]int{hosts * (hosts - 1), 0, hosts * (hosts - 1)}},
	} {
		pt := c.pt
		topo := gluon.NewTopology(pt)
		links := [3]int{topo.PartnerLinks().Len(), topo.PartialLinks().Len(), topo.ReaderLinks().Len()}
		if links != c.links {
			t.Fatalf("%q: %v partner, partial and reader links, want %v", c.name, links, c.links)
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
				exchanges := int64(2*wantStats.Rounds - batches)
				votes := int64(wantStats.Rounds+batches) / 2
				others := int64(wantStats.Rounds-batches) / 2
				perRound := int64(links[0] + links[1] + links[2])
				if want := votes*hosts*(hosts-1) + others*perRound; sends != want {
					t.Errorf("the mesh sent %d records, want %d votes × %d pairs + %d rounds × (%d + %d + %d) links = %d",
						sends, votes, hosts*(hosts-1), others, links[0], links[1], links[2], want)
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
// forward phase ran.
func TestBackwardDepthPanicsPastForwardDepth(t *testing.T) {
	g := gen.RMAT(5, 4, 1)
	pt := partition.CartesianCut(g, 2)
	cluster := dgalois.NewCluster(pt.NumHosts)
	defer cluster.Close()
	j := &job{cluster: cluster, topo: gluon.NewTopology(pt), prog: newProgressGauges(nil),
		sources: []uint32{0}, opts: Options{BatchSize: 1}}
	b := j.newBatch(0, nil)
	b.states = (&statePool{kmax: 1}).makeStates(cluster, b.topo, b.batch)
	// No forward round ran, so the source's own pair was never
	// synchronized (τ = 0) and lands in backward round R − 0 + 1.
	b.fwd = 3
	for _, st := range b.states {
		st.engine.StartBackward(b.fwd)
	}
	defer func() {
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, "4 backward rounds after 3 forward rounds") {
			t.Fatalf("backwardDepth panicked %q", msg)
		}
	}()
	t.Fatalf("backwardDepth returned %d", b.backwardDepth())
}
