package mrbc

// The CONGEST execution of Theorem 1 and the ablation benches: each
// engine on one fixed workload. The paper's tables and figures are
// regenerated by `go run ./cmd/bcbench` (TestTable*Runs and friends in
// internal/bench run them at Tiny scale); EXPERIMENTS.md records their
// output against the paper's numbers.

import (
	"testing"

	"mrbc/internal/brandes"
	"mrbc/internal/core"
	"mrbc/internal/gen"
	"mrbc/internal/mfbc"
	"mrbc/internal/mrbcdist"
	"mrbc/internal/partition"
	"mrbc/internal/sbbc"
)

// BenchmarkCongestTheory measures the exact CONGEST execution
// (Theorem 1): APSP and BC rounds/messages on a strongly connected
// input.
func BenchmarkCongestTheory(b *testing.B) {
	g := gen.SmallWorld(150, 2, 0.1, 3)
	var stats core.CongestStats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := core.CongestBC(g, core.CongestOptions{Mode: core.ModeQuiesce, DisableChannelChecks: true})
		stats = res.Stats
	}
	b.ReportMetric(float64(stats.Rounds()), "congest-rounds")
	b.ReportMetric(float64(stats.Messages()), "congest-messages")
}

// Ablation benches: the individual engines on one fixed workload, so
// `-bench` output directly compares the algorithms Table 2 aggregates.

func ablationWorkload() (*Graph, []uint32) {
	g := gen.WebCrawl(10, 8, 4, 40, 55)
	return g, brandes.FirstKSources(g, 0, 16)
}

func BenchmarkAblationBrandesSequential(b *testing.B) {
	g, sources := ablationWorkload()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = brandes.Sequential(g, sources)
	}
}

func BenchmarkAblationABBC(b *testing.B) {
	g, sources := ablationWorkload()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = brandes.Async(g, sources, brandes.AsyncConfig{})
	}
}

func BenchmarkAblationMFBC(b *testing.B) {
	g, sources := ablationWorkload()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = mfbc.BC(g, sources, mfbc.Options{BatchSize: 16})
	}
}

func BenchmarkAblationMRBCSharedMemory(b *testing.B) {
	g, sources := ablationWorkload()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = core.BC(g, sources, core.Options{BatchSize: 16})
	}
}

func BenchmarkAblationMRBCDistributed(b *testing.B) {
	g, sources := ablationWorkload()
	pt := partition.CartesianCut(g, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = mrbcdist.Run(g, pt, sources, mrbcdist.Options{BatchSize: 16})
	}
}

func BenchmarkAblationSBBCDistributed(b *testing.B) {
	g, sources := ablationWorkload()
	pt := partition.CartesianCut(g, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = sbbc.Run(g, pt, sources)
	}
}

// BenchmarkAblationPartitionPolicies compares the two partitioners'
// effect on MRBC communication (the §5.2 configuration choice).
func BenchmarkAblationPartitionPolicies(b *testing.B) {
	g, sources := ablationWorkload()
	for _, tc := range []struct {
		name string
		pt   *partition.Partitioning
	}{
		{"EdgeCut", partition.EdgeCut(g, 4)},
		{"CartesianCut", partition.CartesianCut(g, 4)},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var bytes int64
			for i := 0; i < b.N; i++ {
				_, stats := mrbcdist.Run(g, tc.pt, sources, mrbcdist.Options{BatchSize: 16})
				bytes = stats.Bytes
			}
			b.ReportMetric(float64(bytes), "comm-bytes")
		})
	}
}

// BenchmarkAblationCongestVsLenzenPeleg compares the message counts of
// MRBC's forward phase against the reconstructed Lenzen-Peleg [38]
// baseline — the improvement Theorem 1 claims ("while sending a
// smaller number of messages").
func BenchmarkAblationCongestVsLenzenPeleg(b *testing.B) {
	g := gen.ErdosRenyi(120, 720, 5)
	var lpMsgs, mrMsgs int64
	for i := 0; i < b.N; i++ {
		lp := core.LenzenPelegAPSP(g, nil)
		mr := core.CongestAPSP(g, core.CongestOptions{Mode: core.ModeFixed2N, DisableChannelChecks: true})
		lpMsgs, mrMsgs = lp.Messages, mr.Stats.ForwardMessages
	}
	b.ReportMetric(float64(lpMsgs), "LP-messages")
	b.ReportMetric(float64(mrMsgs), "MRBC-messages")
}
