package mrbc

// One testing.B benchmark per table and figure of the paper's
// evaluation (Section 5). Each benchmark executes the corresponding
// experiment from internal/bench on the Tiny suite (so `go test
// -bench=.` completes in minutes) and reports the paper's headline
// quantities as custom metrics. The Full-scale runs are produced by
// `go run ./cmd/bcbench`; EXPERIMENTS.md records their output against
// the paper's numbers.

import (
	"testing"

	"mrbc/internal/bench"
	"mrbc/internal/brandes"
	"mrbc/internal/core"
	"mrbc/internal/gen"
	"mrbc/internal/mfbc"
	"mrbc/internal/mrbcdist"
	"mrbc/internal/partition"
	"mrbc/internal/sbbc"
)

// BenchmarkTable1Rounds regenerates Table 1's rounds-per-source and
// load-imbalance columns.
func BenchmarkTable1Rounds(b *testing.B) {
	inputs := bench.Suite(bench.Tiny)
	b.ReportAllocs()
	var rows []bench.Table1Row
	for i := 0; i < b.N; i++ {
		rows = bench.Table1(inputs, bench.Tiny)
	}
	var sbbcR, mrbcR float64
	for _, r := range rows {
		sbbcR += r.SBBCRounds
		mrbcR += r.MRBCRounds
	}
	b.ReportMetric(sbbcR/float64(len(rows)), "SBBC-rounds/src")
	b.ReportMetric(mrbcR/float64(len(rows)), "MRBC-rounds/src")
}

// BenchmarkTable2SmallInputs regenerates the small-input half of
// Table 2 (ABBC, MFBC, SBBC, MRBC at the best host count).
func BenchmarkTable2SmallInputs(b *testing.B) {
	var inputs []bench.Input
	for _, in := range bench.Suite(bench.Tiny) {
		if in.Class == "small" {
			inputs = append(inputs, in)
		}
	}
	for i := 0; i < b.N; i++ {
		_ = bench.Table2(inputs, bench.Tiny)
	}
}

// BenchmarkTable2LargeInputs regenerates the large-input half of
// Table 2 (SBBC vs MRBC at scale).
func BenchmarkTable2LargeInputs(b *testing.B) {
	var inputs []bench.Input
	for _, in := range bench.Suite(bench.Tiny) {
		if in.Class == "large" {
			inputs = append(inputs, in)
		}
	}
	for i := 0; i < b.N; i++ {
		_ = bench.Table2(inputs, bench.Tiny)
	}
}

// BenchmarkFig1BatchSize regenerates Figure 1: MRBC time and rounds
// across batch sizes on the large inputs.
func BenchmarkFig1BatchSize(b *testing.B) {
	inputs := bench.Suite(bench.Tiny)
	var points []bench.Fig1Point
	for i := 0; i < b.N; i++ {
		points = bench.Figure1(inputs, bench.Tiny)
	}
	if len(points) > 0 {
		b.ReportMetric(float64(points[0].Rounds), "rounds-smallest-k")
		b.ReportMetric(float64(points[len(points)-1].Rounds), "rounds-largest-k")
	}
}

// BenchmarkFig2Breakdown regenerates Figure 2a/2b: the computation vs
// communication breakdown with volumes.
func BenchmarkFig2Breakdown(b *testing.B) {
	inputs := bench.Suite(bench.Tiny)
	var small, large []bench.Fig2Bar
	for i := 0; i < b.N; i++ {
		small = bench.Figure2(inputs, "small", bench.Tiny)
		large = bench.Figure2(inputs, "large", bench.Tiny)
	}
	var sbbcBytes, mrbcBytes int64
	for _, bar := range append(small, large...) {
		if bar.Algorithm == "SBBC" {
			sbbcBytes += bar.CommBytes
		} else {
			mrbcBytes += bar.CommBytes
		}
	}
	b.ReportMetric(float64(sbbcBytes), "SBBC-bytes")
	b.ReportMetric(float64(mrbcBytes), "MRBC-bytes")
}

// BenchmarkFig3Scaling regenerates Figure 3: strong scaling of the
// large inputs across the host sweep.
func BenchmarkFig3Scaling(b *testing.B) {
	inputs := bench.Suite(bench.Tiny)
	for i := 0; i < b.N; i++ {
		_ = bench.Figure3(inputs, bench.Tiny)
	}
}

// BenchmarkSummaryHeadline regenerates the §5.3 headline aggregates
// (round and communication reduction of MRBC over SBBC).
func BenchmarkSummaryHeadline(b *testing.B) {
	inputs := bench.Suite(bench.Tiny)
	var s bench.Summary
	for i := 0; i < b.N; i++ {
		s = bench.Summarize(inputs, bench.Tiny)
	}
	b.ReportMetric(s.RoundReduction, "round-reduction-x")
	b.ReportMetric(s.CommReduction, "commtime-reduction-x")
}

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
