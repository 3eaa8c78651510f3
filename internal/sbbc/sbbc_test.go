package sbbc

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
		sources := brandes.FirstKSources(g, 0, 16)
		want := brandes.Sequential(g, sources)
		for _, hosts := range []int{1, 2, 4, 6} {
			for policy, pt := range map[string]*partition.Partitioning{
				"edge-cut":  partition.EdgeCut(g, hosts),
				"cartesian": partition.CartesianCut(g, hosts),
			} {
				got, _ := Run(g, pt, sources)
				_ = policy
				if !approxEqual(got, want, 1e-9) {
					t.Fatalf("%s %s hosts=%d: BC mismatch", name, policy, hosts)
				}
			}
		}
	}
}

func TestRoundsScaleWithEccentricity(t *testing.T) {
	// SBBC's defining cost: about 2·ecc+1 rounds per source.
	g := gen.Path(40)
	pt := partition.EdgeCut(g, 2)
	_, stats := Run(g, pt, []uint32{0})
	// Forward: 39 levels + 1 empty round; backward: 39 levels.
	if stats.Rounds < 70 || stats.Rounds > 85 {
		t.Fatalf("path rounds = %d, want about 79", stats.Rounds)
	}
}

func TestUnreachableSource(t *testing.T) {
	// A source with no out-edges terminates immediately with zero
	// contribution.
	g := graph.FromEdges(4, [][2]uint32{{1, 2}, {2, 3}})
	pt := partition.EdgeCut(g, 2)
	got, stats := Run(g, pt, []uint32{0})
	for _, v := range got {
		if v != 0 {
			t.Fatalf("scores = %v, want zeros", got)
		}
	}
	if stats.Rounds != 1 {
		t.Fatalf("rounds = %d, want 1 (single empty-frontier round)", stats.Rounds)
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
	Run(g, pt, []uint32{4})
}

func TestCommunicationOnlyAcrossHosts(t *testing.T) {
	g := gen.RMAT(7, 8, 2)
	sources := brandes.FirstKSources(g, 0, 8)
	_, multi := Run(g, partition.CartesianCut(g, 4), sources)
	if multi.Bytes == 0 {
		t.Fatal("multi-host run recorded no communication")
	}
	_, solo := Run(g, partition.EdgeCut(g, 1), sources)
	if solo.Bytes != 0 {
		t.Fatal("single-host run recorded communication")
	}
}

// Property: SBBC equals Brandes on random graphs, host counts, and
// policies.
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
		numSrc := 1 + rng.Intn(8)
		if numSrc > n {
			numSrc = n
		}
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
		got, _ := Run(g, pt, sources)
		want := brandes.Sequential(g, sources)
		return approxEqual(got, want, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkDistributedSBBC(b *testing.B) {
	g := gen.RMAT(10, 8, 1)
	pt := partition.CartesianCut(g, 4)
	sources := brandes.FirstKSources(g, 0, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = Run(g, pt, sources)
	}
}

// BenchmarkWebSBBC is the in-tree twin of the benchmark's web_sbbc_h4
// workload (seed 1): ~20000 one-source rounds of mostly empty exchanges,
// where the fixed price of a round is the whole bill. pooled/op and
// caller/op count the phases that woke the worker pool and those the
// caller ran alone.
func BenchmarkWebSBBC(b *testing.B) {
	g := gen.WebCrawl(11, 8, 3, 80, 1)
	pt := partition.CartesianCut(g, 4)
	sources := brandes.FirstKSources(g, 0, 128)
	reg := obs.NewRegistry()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := RunOptsChecked(g, pt, sources, Options{Metrics: reg}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(reg.Counter("dgalois_phases_pooled_total").Load())/float64(b.N), "pooled/op")
	b.ReportMetric(float64(reg.Counter("dgalois_phases_caller_total").Load())/float64(b.N), "caller/op")
}
