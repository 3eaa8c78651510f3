package core

import (
	"fmt"
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

// TestCrossEngineEquivalence sweeps the engine variants — the seed
// O(n)-scan engine, the bucket-scheduled engine, and the bucketed
// engine with intra-batch parallel compute — against Brandes over the
// generator suite and batch sizes {1, 7, 32}, asserting identical
// scores (≤ 1e-9) and identical round counts across variants.
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
				scan, scanStats := BC(in.g, sources, Options{BatchSize: bs, Parallelism: 1, Scheduler: ScanScheduler})
				bucket, bucketStats := BC(in.g, sources, Options{BatchSize: bs, Parallelism: 1, Workers: 1})
				par, parStats := BC(in.g, sources, Options{BatchSize: bs, Parallelism: 1, Workers: 4})

				if d := maxAbsDiff(scan, want); d > 1e-9 {
					t.Fatalf("scan engine vs Brandes: max abs diff %g", d)
				}
				if d := maxAbsDiff(bucket, want); d > 1e-9 {
					t.Fatalf("bucketed engine vs Brandes: max abs diff %g", d)
				}
				if d := maxAbsDiff(par, want); d > 1e-9 {
					t.Fatalf("parallel engine vs Brandes: max abs diff %g", d)
				}
				if scanStats.Rounds() != bucketStats.Rounds() {
					t.Fatalf("rounds diverged: scan %d vs bucketed %d", scanStats.Rounds(), bucketStats.Rounds())
				}
				if scanStats.Rounds() != parStats.Rounds() {
					t.Fatalf("rounds diverged: scan %d vs parallel %d", scanStats.Rounds(), parStats.Rounds())
				}
				if scanStats.LabelsSynced != bucketStats.LabelsSynced || scanStats.LabelsSynced != parStats.LabelsSynced {
					t.Fatalf("labels synced diverged: %d / %d / %d",
						scanStats.LabelsSynced, bucketStats.LabelsSynced, parStats.LabelsSynced)
				}
			})
		}
	}
}

// TestAPSPBatchVariantsAgree checks the forward-only entry point across
// scheduler variants: identical distances, σ counts, and round counts.
func TestAPSPBatchVariantsAgree(t *testing.T) {
	g := gen.WebCrawl(7, 6, 2, 20, 11)
	batch := brandes.FirstKSources(g, 0, 24)
	dScan, sScan, stScan := APSPBatchOpts(g, batch, Options{Scheduler: ScanScheduler})
	dBkt, sBkt, stBkt := APSPBatchOpts(g, batch, Options{Workers: 1})
	dPar, sPar, stPar := APSPBatchOpts(g, batch, Options{Workers: 4})
	if stScan.ForwardRounds != stBkt.ForwardRounds || stScan.ForwardRounds != stPar.ForwardRounds {
		t.Fatalf("forward rounds diverged: %d / %d / %d",
			stScan.ForwardRounds, stBkt.ForwardRounds, stPar.ForwardRounds)
	}
	for i := range batch {
		for v := 0; v < g.NumVertices(); v++ {
			if dScan[i][v] != dBkt[i][v] || dScan[i][v] != dPar[i][v] {
				t.Fatalf("dist[%d][%d] diverged: %d / %d / %d", i, v, dScan[i][v], dBkt[i][v], dPar[i][v])
			}
			if sScan[i][v] != sBkt[i][v] || sScan[i][v] != sPar[i][v] {
				t.Fatalf("sigma[%d][%d] diverged: %v / %v / %v", i, v, sScan[i][v], sBkt[i][v], sPar[i][v])
			}
		}
	}
}

// TestBucketSchedulerSkipsEmptyRounds builds a graph with guaranteed
// empty schedule rounds (a long path forces dist-dominated due rounds)
// and checks the bucketed engine still reports the same round count as
// the scan engine, which walks every round.
func TestBucketSchedulerSkipsEmptyRounds(t *testing.T) {
	g := gen.Path(200)
	sources := []uint32{0}
	scan, scanStats := BC(g, sources, Options{BatchSize: 1, Scheduler: ScanScheduler})
	bucket, bucketStats := BC(g, sources, Options{BatchSize: 1})
	if d := maxAbsDiff(scan, bucket); d > 1e-9 {
		t.Fatalf("path graph scores diverged: %g", d)
	}
	if scanStats.Rounds() != bucketStats.Rounds() {
		t.Fatalf("rounds diverged: %d vs %d", scanStats.Rounds(), bucketStats.Rounds())
	}
}

// TestParallelWorkerSweep exercises several worker counts, including
// counts exceeding the vertex count (shard collapse) on a tiny graph.
func TestParallelWorkerSweep(t *testing.T) {
	g := gen.ErdosRenyi(50, 200, 21)
	sources := brandes.FirstKSources(g, 0, 20)
	want := brandes.Sequential(g, sources)
	for _, w := range []int{2, 3, 8, 64} {
		got, stats := BC(g, sources, Options{BatchSize: 8, Parallelism: 1, Workers: w})
		if d := maxAbsDiff(got, want); d > 1e-9 {
			t.Fatalf("workers=%d: max abs diff %g", w, d)
		}
		if stats.Batches != 3 {
			t.Fatalf("workers=%d: batches = %d", w, stats.Batches)
		}
	}
}

// TestBothParallelLevelsCompose runs batch-level and intra-batch
// parallelism together.
func TestBothParallelLevelsCompose(t *testing.T) {
	g := gen.RMAT(9, 8, 31)
	sources := brandes.FirstKSources(g, 0, 64)
	want, wantStats := BC(g, sources, Options{BatchSize: 8, Parallelism: 1, Workers: 1})
	got, gotStats := BC(g, sources, Options{BatchSize: 8, Parallelism: 2, Workers: 2})
	if d := maxAbsDiff(got, want); d > 1e-9 {
		t.Fatalf("composed parallelism changed BC: %g", d)
	}
	if wantStats.Rounds() != gotStats.Rounds() || wantStats.LabelsSynced != gotStats.LabelsSynced {
		t.Fatalf("stats diverged: %+v vs %+v", wantStats, gotStats)
	}
}
