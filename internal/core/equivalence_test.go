package core

import (
	"fmt"
	"math"
	"testing"

	"mrbc/internal/brandes"
	"mrbc/internal/gen"
	"mrbc/internal/graph"
)

// maxAbsDiff returns the largest absolute difference between two score
// vectors.
func maxAbsDiff(a, b []float64) float64 {
	var max float64
	for i := range a {
		d := a[i] - b[i]
		if d < 0 {
			d = -d
		}
		if d > max {
			max = d
		}
	}
	return max
}

// TestCrossEngineEquivalence sweeps the engine against Brandes over the
// generator suite and batch sizes {1, 7, 32}: scores within 1e-9, and
// BC's serial loop bitwise equal — scores and RunStats — to the same
// loop with every forward round checked against the scan oracle.
func TestCrossEngineEquivalence(t *testing.T) {
	inputs := []struct {
		name string
		g    *graph.Graph
	}{
		{"rmat", gen.RMAT(8, 8, 7)},
		{"kronecker", gen.Kronecker(8, 6, 9)},
		{"roadgrid", gen.RoadGrid(14, 22, 3)},
		{"webcrawl", gen.WebCrawl(7, 6, 3, 25, 5)},
	}
	for _, in := range inputs {
		sources := brandes.FirstKSources(in.g, 0, 40)
		want := brandes.Sequential(in.g, sources)
		for _, bs := range []int{1, 7, 32} {
			t.Run(fmt.Sprintf("%s/k=%d", in.name, bs), func(t *testing.T) {
				oracle, oracleStats := oracleBC(t, in.g, sources, bs)
				got, stats := BC(in.g, sources, Options{BatchSize: bs, Parallelism: 1})
				if d := maxAbsDiff(got, want); d > 1e-9 {
					t.Fatalf("engine vs Brandes: max abs diff %g", d)
				}
				for v := range got {
					if math.Float64bits(got[v]) != math.Float64bits(oracle[v]) {
						t.Fatalf("BC(%d) = %v, oracle-checked loop %v", v, got[v], oracle[v])
					}
				}
				if stats != oracleStats {
					t.Fatalf("stats %+v, oracle-checked loop %+v", stats, oracleStats)
				}
			})
		}
	}
}

// TestAPSPBatchVariantsAgree checks the forward-only entry point against
// an oracle-checked forward phase: identical distances, σ counts, and
// round counts.
func TestAPSPBatchVariantsAgree(t *testing.T) {
	g := gen.WebCrawl(7, 6, 2, 20, 11)
	batch := brandes.FirstKSources(g, 0, 24)
	dist, sigma, stats := APSPBatchOpts(g, batch, Options{})
	e := NewEngine(g, len(batch))
	for i, s := range batch {
		e.InitSource(s, i, true)
	}
	var oracle RunStats
	if _, _, err := oracleForward(e, &oracle); err != nil {
		t.Fatal(err)
	}
	if stats.ForwardRounds != oracle.ForwardRounds {
		t.Fatalf("forward rounds diverged: %d, oracle %d", stats.ForwardRounds, oracle.ForwardRounds)
	}
	for i := range batch {
		for v := 0; v < g.NumVertices(); v++ {
			if d := e.Get(uint32(v), i); dist[i][v] != d.Dist || sigma[i][v] != d.Sigma {
				t.Fatalf("(src %d, v %d): APSPBatchOpts (%d, %v), oracle (%d, %v)", i, v, dist[i][v], sigma[i][v], d.Dist, d.Sigma)
			}
		}
	}
}

// TestBucketSchedulerSkipsEmptyRounds builds a graph with a round in
// which nothing is due: a hub w receives five sources at distance 1
// (due in rounds 2..6, relayed to z in rounds 3..7) and a sixth at
// distance 3 in sixth place (due in round 9, z's copy in 10), so round
// 8 is empty. NextForwardRound must jump it, the scan oracle must find
// it empty, and the scores and round count must still be Brandes'.
func TestBucketSchedulerSkipsEmptyRounds(t *testing.T) {
	const w, z = 8, 9
	b := graph.NewBuilder(10)
	for s := uint32(0); s < 5; s++ {
		b.AddEdge(s, w)
	}
	b.AddEdge(5, 6)
	b.AddEdge(6, 7)
	b.AddEdge(7, w)
	b.AddEdge(w, z)
	g := b.Build()
	sources := []uint32{0, 1, 2, 3, 4, 5}
	e := NewEngine(g, len(sources))
	for i, s := range sources {
		e.InitSource(s, i, true)
	}
	var stats RunStats
	trace, skipped, err := oracleForward(e, &stats)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := trace[8]; ok || skipped == 0 {
		t.Fatalf("round 8 not skipped: %d rounds skipped, trace %v", skipped, trace)
	}
	got, bcStats := BC(g, sources, Options{BatchSize: len(sources)})
	if d := maxAbsDiff(got, brandes.Sequential(g, sources)); d > 1e-9 {
		t.Fatalf("scores vs Brandes: max abs diff %g", d)
	}
	if bcStats.ForwardRounds != stats.ForwardRounds {
		t.Fatalf("forward rounds: BC %d, oracle %d", bcStats.ForwardRounds, stats.ForwardRounds)
	}
}

// TestParallelWorkerSweep exercises several batch-level worker counts,
// including counts exceeding the batch count, on a tiny graph.
func TestParallelWorkerSweep(t *testing.T) {
	g := gen.ErdosRenyi(50, 200, 21)
	sources := brandes.FirstKSources(g, 0, 20)
	want := brandes.Sequential(g, sources)
	for _, w := range []int{2, 3, 8, 64} {
		got, stats := BC(g, sources, Options{BatchSize: 8, Parallelism: w})
		if d := maxAbsDiff(got, want); d > 1e-9 {
			t.Fatalf("workers=%d: max abs diff %g", w, d)
		}
		if stats.Batches != 3 {
			t.Fatalf("workers=%d: batches = %d", w, stats.Batches)
		}
	}
}
