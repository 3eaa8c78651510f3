package mrbcdist

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"mrbc/internal/brandes"
	"mrbc/internal/gen"
	"mrbc/internal/graph"
	"mrbc/internal/obs"
	"mrbc/internal/partition"
)

func approxEqual(a, b []float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > tol*(1+math.Abs(a[i])) {
			return false
		}
	}
	return true
}

func TestMatchesBrandesAcrossHostsAndPolicies(t *testing.T) {
	inputs := map[string]*graph.Graph{
		"rmat":   gen.RMAT(7, 8, 3),
		"grid":   gen.RoadGrid(8, 8, 3),
		"ladder": gen.LadderDAG(10),
		"er":     gen.ErdosRenyi(100, 500, 3),
	}
	for name, g := range inputs {
		numSrc := 24
		if n := g.NumVertices(); n < numSrc {
			numSrc = n
		}
		sources := brandes.FirstKSources(g, 0, numSrc)
		want := brandes.Sequential(g, sources)
		for _, hosts := range []int{1, 2, 4, 6} {
			for policy, pt := range map[string]*partition.Partitioning{
				"edge-cut":  partition.EdgeCut(g, hosts),
				"cartesian": partition.CartesianCut(g, hosts),
			} {
				got, _ := Run(g, pt, sources, Options{BatchSize: 8})
				if !approxEqual(got, want, 1e-9) {
					t.Fatalf("%s %s hosts=%d: BC mismatch", name, policy, hosts)
				}
			}
		}
	}
}

func TestBatchSizeInvariance(t *testing.T) {
	g := gen.RMAT(7, 8, 5)
	pt := partition.CartesianCut(g, 4)
	sources := brandes.FirstKSources(g, 0, 32)
	want := brandes.Sequential(g, sources)
	for _, k := range []int{1, 5, 16, 32} {
		got, _ := Run(g, pt, sources, Options{BatchSize: k})
		if !approxEqual(got, want, 1e-9) {
			t.Fatalf("batch=%d: BC mismatch", k)
		}
	}
}

func TestRoundBoundPerBatch(t *testing.T) {
	// Lemma 8 at the distributed level: forward+backward rounds per
	// batch at most 2(k+H) plus the empty detection round.
	g := gen.WebCrawl(6, 6, 2, 15, 7)
	pt := partition.EdgeCut(g, 4)
	k := 16
	sources := brandes.FirstKSources(g, 0, k)
	_, stats := Run(g, pt, sources, Options{BatchSize: k})
	h := maxFiniteDistance(g, sources)
	bound := 2*(k+h) + 1
	if stats.Rounds > bound {
		t.Fatalf("rounds = %d exceed 2(k+H)+1 = %d", stats.Rounds, bound)
	}
}

func maxFiniteDistance(g *graph.Graph, sources []uint32) int {
	var h uint32
	for _, s := range sources {
		for _, d := range g.BFS(s) {
			if d != graph.InfDist && d > h {
				h = d
			}
		}
	}
	return int(h)
}

func TestLargerBatchFewerRounds(t *testing.T) {
	// Figure 1's effect at the distributed level.
	g := gen.WebCrawl(6, 6, 3, 20, 9)
	pt := partition.CartesianCut(g, 4)
	sources := brandes.FirstKSources(g, 0, 32)
	_, small := Run(g, pt, sources, Options{BatchSize: 4})
	_, large := Run(g, pt, sources, Options{BatchSize: 32})
	if large.Rounds >= small.Rounds {
		t.Fatalf("batch 32 rounds %d should undercut batch 4 rounds %d", large.Rounds, small.Rounds)
	}
}

func TestCommunicationVolumeTracked(t *testing.T) {
	g := gen.RMAT(7, 8, 11)
	pt := partition.CartesianCut(g, 4)
	sources := brandes.FirstKSources(g, 0, 16)
	_, stats := Run(g, pt, sources, Options{BatchSize: 16})
	if stats.Bytes == 0 || stats.Messages == 0 {
		t.Fatalf("multi-host run recorded no communication: %+v", stats)
	}
	// A single host exchanges nothing.
	_, solo := Run(g, partition.EdgeCut(g, 1), sources, Options{BatchSize: 16})
	if solo.Bytes != 0 || solo.Messages != 0 {
		t.Fatalf("single-host run recorded communication: %+v", solo)
	}
}

// TestAdaptiveEncodingCoversEveryMessage checks the sync-metadata
// picker end to end: every message of a run is attributed to exactly
// one format, and the picker really switches per message — the road
// corridor is relabeled so its long shared lists carry a thin wavefront
// (sparse wins), while RMAT's bulk rounds favour dense or all. The
// formats leave the rounds alone: Stats.Rounds is what the batch
// summaries account for, forward, backward and one termination round
// per batch. That each pick is the smallest encoding of its message is
// gluon's TestAdaptivePickerIsMinimal.
func TestAdaptiveEncodingCoversEveryMessage(t *testing.T) {
	for _, tc := range []struct {
		name           string
		g              *graph.Graph
		sources, batch int
	}{
		{"road-corridor", gen.ShuffleIDs(gen.RoadGrid(60, 6, 104), 105), 4, 4},
		{"rmat", gen.RMAT(9, 8, 103), 8, 8},
	} {
		pt := partition.CartesianCut(tc.g, 2)
		sources := brandes.FirstKSources(tc.g, 0, tc.sources)
		tr := obs.NewTrace(1<<16, obs.LevelPhase)
		_, st := Run(tc.g, pt, sources, Options{BatchSize: tc.batch, Trace: tr})
		if got := st.Encoding.Total(); got != st.Messages {
			t.Errorf("%s: format mix covers %d of %d messages", tc.name, got, st.Messages)
		}
		formats := 0
		for _, n := range []int64{st.Encoding.Dense, st.Encoding.Sparse, st.Encoding.All} {
			if n > 0 {
				formats++
			}
		}
		if formats < 2 {
			t.Errorf("%s: format mix %+v uses %d format(s), want at least 2", tc.name, st.Encoding, formats)
		}
		rounds := 0
		for _, e := range tr.Events() {
			if e.Kind == obs.KindBatch {
				rounds += int(e.FwdRounds) + int(e.BackRounds) + 1 // + the termination round
			}
		}
		if rounds != st.Rounds {
			t.Errorf("%s: batch summaries account for %d rounds, Stats.Rounds = %d", tc.name, rounds, st.Rounds)
		}
	}
}

func TestDisconnectedSources(t *testing.T) {
	// Sources in separate components must not deadlock or corrupt.
	g := graph.FromEdges(8, [][2]uint32{{0, 1}, {1, 2}, {4, 5}, {5, 6}, {6, 7}, {7, 4}})
	pt := partition.EdgeCut(g, 2)
	sources := []uint32{0, 4, 3} // 3 is isolated
	want := brandes.Sequential(g, sources)
	got, _ := Run(g, pt, sources, Options{BatchSize: 3})
	if !approxEqual(got, want, 1e-12) {
		t.Fatalf("disconnected: got %v want %v", got, want)
	}
}

func TestSourceOutOfRangePanics(t *testing.T) {
	g := gen.Path(4)
	pt := partition.EdgeCut(g, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Run(g, pt, []uint32{4}, Options{})
}

// Property: distributed MRBC equals Brandes for random graphs, host
// counts, batch sizes, and policies.
func TestQuickAgainstBrandes(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(40)
		b := graph.NewBuilder(n)
		for i := 0; i < rng.Intn(5*n); i++ {
			b.AddEdge(uint32(rng.Intn(n)), uint32(rng.Intn(n)))
		}
		g := b.Build()
		hosts := 1 + rng.Intn(5)
		k := 1 + rng.Intn(8)
		numSrc := 1 + rng.Intn(n)
		sources := make([]uint32, numSrc)
		for i, s := range rng.Perm(n)[:numSrc] {
			sources[i] = uint32(s)
		}
		var pt *partition.Partitioning
		if seed%2 == 0 {
			pt = partition.EdgeCut(g, hosts)
		} else {
			pt = partition.CartesianCut(g, hosts)
		}
		got, _ := Run(g, pt, sources, Options{BatchSize: k})
		want := brandes.Sequential(g, sources)
		return approxEqual(got, want, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// benchRun times whole distributed runs on 4 in-process hosts. The two
// shapes below are benchmark/'s rmat_mem_h4 and road_mem_h4 jobs at seed
// 1, so `go test -run '^$' -bench Run -cpuprofile cpu.out
// ./internal/mrbcdist` profiles what the harness measures. pooled/op and
// caller/op count the phases that woke the worker pool and those the
// caller ran alone, lost/op the proposals that lost arbitration
// (mrbc_proposals_lost_total).
func benchRun(b *testing.B, g *graph.Graph, numSources, batch int) {
	if testing.Short() {
		b.Skip("whole-run benchmark")
	}
	pt := partition.CartesianCut(g, 4)
	sources := brandes.FirstKSources(g, 0, numSources)
	reg := obs.NewRegistry()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = Run(g, pt, sources, Options{BatchSize: batch, Metrics: reg})
	}
	b.ReportMetric(float64(reg.Counter("dgalois_phases_pooled_total").Load())/float64(b.N), "pooled/op")
	b.ReportMetric(float64(reg.Counter("dgalois_phases_caller_total").Load())/float64(b.N), "caller/op")
	b.ReportMetric(float64(reg.Counter("mrbc_proposals_lost_total").Load())/float64(b.N), "lost/op")
}

// BenchmarkRunRMAT: power-law, few fat rounds — arbitration handles
// thousands of proposals per round.
func BenchmarkRunRMAT(b *testing.B) { benchRun(b, gen.RMAT(13, 14, 1), 64, 32) }

// BenchmarkRunRoad: degree ≤ 4, diameter ≈ 250 — hundreds of near-empty
// rounds, so per-round reset cost dominates the handlers.
func BenchmarkRunRoad(b *testing.B) { benchRun(b, gen.RoadGrid(128, 128, 1), 32, 16) }

func TestLargerScaleAgainstOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second stress test")
	}
	inputs := map[string]*graph.Graph{
		"rmat2k":   gen.RMAT(11, 8, 71),
		"webcrawl": gen.WebCrawl(10, 8, 6, 50, 72),
		"grid":     gen.RoadGrid(40, 40, 73),
	}
	for name, g := range inputs {
		sources := brandes.FirstKSources(g, 0, 32)
		want := brandes.Parallel(g, sources, 4)
		pt := partition.CartesianCut(g, 6)
		got, stats := Run(g, pt, sources, Options{BatchSize: 16})
		if !approxEqual(got, want, 1e-9) {
			t.Fatalf("%s: BC mismatch at scale", name)
		}
		if stats.Rounds == 0 || stats.Bytes == 0 {
			t.Fatalf("%s: missing stats", name)
		}
	}
}
