package bench

import (
	"encoding/json"
	"runtime"
	"testing"

	"mrbc/internal/brandes"
	"mrbc/internal/core"
	"mrbc/internal/gen"
	"mrbc/internal/graph"
)

// ---------------------------------------------------------------------------
// Engine comparison: seed O(n)-scan scheduler vs the round-bucketed
// scheduler, with and without intra-batch parallel compute. Not part of
// the paper's evaluation; this documents the single-host engine
// optimization (DESIGN.md §5, "Round scheduler"). `bcbench -exp engine`
// emits the JSON checked in as BENCH_engine.json.
// ---------------------------------------------------------------------------

// EngineBenchRow is one (input, variant) measurement.
type EngineBenchRow struct {
	Input         string  `json:"input"`
	Vertices      int     `json:"vertices"`
	Edges         int64   `json:"edges"`
	Batch         int     `json:"batch"`
	Sources       int     `json:"sources"`
	Variant       string  `json:"variant"` // scan | bucket | bucket-parallel
	Workers       int     `json:"workers"`
	Iterations    int     `json:"iterations"`
	NsPerOp       int64   `json:"ns_per_op"`
	SpeedupVsScan float64 `json:"speedup_vs_scan"`
	Rounds        int     `json:"rounds"`
}

// EngineBenchReport is the top-level JSON document.
type EngineBenchReport struct {
	GoMaxProcs int              `json:"gomaxprocs"`
	Rows       []EngineBenchRow `json:"rows"`
}

type engineInput struct {
	name    string
	build   func() *graph.Graph
	sources int
	batch   int
}

func engineInputs(s Scale) []engineInput {
	if s == Tiny {
		return []engineInput{
			{"roadgrid", func() *graph.Graph { return gen.RoadGrid(24, 24, 104) }, 8, 8},
			{"rmat", func() *graph.Graph { return gen.RMAT(9, 8, 103) }, 8, 8},
		}
	}
	return []engineInput{
		// High diameter, many near-empty rounds: the workload where the
		// per-round O(n) scan dominates. Sources and batch size follow
		// the suite's road input (inputs.go: road networks use small
		// batches, §5.2), which is exactly the sparse-round regime.
		{"roadgrid", func() *graph.Graph { return gen.RoadGrid(40000, 1, 104) }, 8, 8},
		// Low diameter, dense rounds: the scan overhead is smaller here,
		// so this bounds the worst case for the bucket scheduler.
		{"rmat", func() *graph.Graph { return gen.RMAT(13, 8, 103) }, 32, 32},
	}
}

type engineVariant struct {
	name string
	opts func(batch int) core.Options
}

func engineVariants() []engineVariant {
	return []engineVariant{
		{"scan", func(k int) core.Options {
			return core.Options{BatchSize: k, Parallelism: 1, Scheduler: core.ScanScheduler}
		}},
		{"bucket", func(k int) core.Options {
			return core.Options{BatchSize: k, Parallelism: 1, Workers: 1}
		}},
		{"bucket-parallel", func(k int) core.Options {
			return core.Options{BatchSize: k, Parallelism: 1, Workers: runtime.GOMAXPROCS(0)}
		}},
	}
}

// EngineBench measures BC wall time per variant on each input using the
// standard benchmark harness (auto-scaled iteration counts).
func EngineBench(scale Scale) EngineBenchReport {
	report := EngineBenchReport{GoMaxProcs: runtime.GOMAXPROCS(0)}
	for _, in := range engineInputs(scale) {
		g := in.build()
		sources := brandes.FirstKSources(g, 0, in.sources)
		var scanNs int64
		for _, v := range engineVariants() {
			opts := v.opts(in.batch)
			_, stats := core.BC(g, sources, opts) // warm-up + round count
			res := testing.Benchmark(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					core.BC(g, sources, opts)
				}
			})
			row := EngineBenchRow{
				Input:      in.name,
				Vertices:   g.NumVertices(),
				Edges:      g.NumEdges(),
				Batch:      in.batch,
				Sources:    len(sources),
				Variant:    v.name,
				Workers:    workersFor(v.name),
				Iterations: res.N,
				NsPerOp:    res.NsPerOp(),
				Rounds:     stats.Rounds(),
			}
			if v.name == "scan" {
				scanNs = row.NsPerOp
			}
			if scanNs > 0 && row.NsPerOp > 0 {
				row.SpeedupVsScan = float64(scanNs) / float64(row.NsPerOp)
			}
			report.Rows = append(report.Rows, row)
		}
	}
	return report
}

func workersFor(variant string) int {
	switch variant {
	case "bucket-parallel":
		return runtime.GOMAXPROCS(0)
	default:
		return 1
	}
}

// FormatEngineBench renders the report as indented JSON.
func FormatEngineBench(r EngineBenchReport) string {
	out, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		panic(err) // the report is plain data; marshal cannot fail
	}
	return string(out)
}
