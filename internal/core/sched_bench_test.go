package core

import (
	"testing"

	"mrbc/internal/brandes"
	"mrbc/internal/gen"
	"mrbc/internal/graph"
)

// Benchmarks on the two workload shapes that matter: a road corridor
// (high diameter, many near-empty rounds) and an RMAT power-law graph
// (low diameter, dense rounds).

func benchmarkEngine(b *testing.B, g *graph.Graph, numSources int, opts Options) {
	sources := brandes.FirstKSources(g, 0, numSources)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = BC(g, sources, opts)
	}
}

func BenchmarkMRBCRoadGrid(b *testing.B) {
	benchmarkEngine(b, gen.RoadGrid(40000, 1, 104), 8, Options{BatchSize: 8, Parallelism: 1})
}

func BenchmarkMRBCRMAT(b *testing.B) {
	benchmarkEngine(b, gen.RMAT(13, 8, 103), 32, Options{BatchSize: 32, Parallelism: 1})
}
