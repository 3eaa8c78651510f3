package core

import (
	"runtime"
	"testing"

	"mrbc/internal/brandes"
	"mrbc/internal/gen"
	"mrbc/internal/graph"
)

// Benchmarks comparing the scheduler variants on the two workload
// shapes that matter: a road corridor (high diameter, many near-empty
// rounds — the case the O(n) per-round scan hurts most) and an RMAT
// power-law graph (low diameter, dense rounds). BENCH_engine.json is
// generated from the same configurations by `bcbench -exp engine`.

func benchmarkEngine(b *testing.B, g *graph.Graph, numSources int, opts Options) {
	sources := brandes.FirstKSources(g, 0, numSources)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = BC(g, sources, opts)
	}
}

func roadCorridor() *graph.Graph { return gen.RoadGrid(40000, 1, 104) }

func BenchmarkMRBCRoadGridScan(b *testing.B) {
	benchmarkEngine(b, roadCorridor(), 8, Options{BatchSize: 8, Parallelism: 1, Scheduler: ScanScheduler})
}

func BenchmarkMRBCRoadGridBucket(b *testing.B) {
	benchmarkEngine(b, roadCorridor(), 8, Options{BatchSize: 8, Parallelism: 1, Workers: 1})
}

func BenchmarkMRBCRoadGridBucketParallel(b *testing.B) {
	benchmarkEngine(b, roadCorridor(), 8, Options{BatchSize: 8, Parallelism: 1, Workers: runtime.GOMAXPROCS(0)})
}

func BenchmarkMRBCRMATScan(b *testing.B) {
	benchmarkEngine(b, gen.RMAT(13, 8, 103), 32, Options{BatchSize: 32, Parallelism: 1, Scheduler: ScanScheduler})
}

func BenchmarkMRBCRMATBucket(b *testing.B) {
	benchmarkEngine(b, gen.RMAT(13, 8, 103), 32, Options{BatchSize: 32, Parallelism: 1, Workers: 1})
}

func BenchmarkMRBCRMATBucketParallel(b *testing.B) {
	benchmarkEngine(b, gen.RMAT(13, 8, 103), 32, Options{BatchSize: 32, Parallelism: 1, Workers: runtime.GOMAXPROCS(0)})
}
