package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"

	"mrbc/internal/brandes"
	"mrbc/internal/core"
	"mrbc/internal/gen"
	"mrbc/internal/graph"
)

// ---------------------------------------------------------------------------
// Multicore scaling benchmark: the bucket-parallel engine across worker
// counts against the serial bucket scheduler, on the two structural
// input classes. `bcbench -exp scaling` emits the JSON committed as
// BENCH_scaling.json, and the regress guard re-validates that document
// against CheckScalingBench.
//
// Speedup floors are honest about hardware: a recorded report carries
// the recording machine's NumCPU and whether the race detector was on,
// and the multi-worker floors arm only when the machine actually had
// the cores (NumCPU >= workers) and no instrumentation. The Workers=1
// parity floor is unconditional — one worker dispatches to the serial
// bucket path, so losing parity there means the dispatch gate broke,
// which no amount of missing cores excuses.
// ---------------------------------------------------------------------------

// ScalingBaselineFile is the committed scaling document's file name.
const ScalingBaselineFile = "BENCH_scaling.json"

// ScalingParityFloor is the minimum bucket-parallel/bucket speedup at
// Workers=1 (full scale): both variants run the identical serial path,
// so only measurement noise separates them.
const ScalingParityFloor = 0.85

// ScalingParityFloorTiny relaxes the parity floor at tiny scale, where
// per-op times are microseconds and scheduler noise dominates.
const ScalingParityFloorTiny = 0.60

// scalingFloors are the multi-worker speedup floors on the roadgrid
// input, enforced only at full scale and only when the recording
// machine had NumCPU >= workers with the race detector off.
var scalingFloors = map[int]float64{2: 1.4, 4: 2.0, 8: 2.5}

// scalingWorkerCounts is the measured worker sweep.
var scalingWorkerCounts = []int{1, 2, 4, 8}

// ScalingRow is one (input, variant, workers) measurement.
type ScalingRow struct {
	Input    string `json:"input"`
	Vertices int    `json:"vertices"`
	Edges    int64  `json:"edges"`
	Batch    int    `json:"batch"`
	Sources  int    `json:"sources"`
	Variant  string `json:"variant"` // bucket | bucket-parallel
	Workers  int    `json:"workers"`

	Iterations int   `json:"iterations"`
	NsPerOp    int64 `json:"ns_per_op"`
	// Speedup is bucket (Workers=1) ns/op over this row's ns/op on the
	// same input.
	Speedup float64 `json:"speedup"`

	// Scheduler counters from one instrumented run: how much of the work
	// actually fanned out.
	ParallelRounds int64 `json:"parallel_rounds"`
	InlineRounds   int64 `json:"inline_rounds"`
	Steals         int64 `json:"steals"`
}

// ScalingReport is the top-level JSON document (and baseline format).
type ScalingReport struct {
	// GoMaxProcs is the value in effect while measuring (raised to 8
	// when the ambient setting was lower, so the worker sweep is not
	// artificially serialized by a low setting).
	GoMaxProcs int `json:"gomaxprocs"`
	// NumCPU is the machine's core count: the honest ceiling on any
	// speedup a recorded report can claim.
	NumCPU int `json:"num_cpu"`
	// Race records whether the race detector instrumented the run.
	Race  bool         `json:"race"`
	Scale string       `json:"scale"`
	Rows  []ScalingRow `json:"rows"`
}

type scalingInput struct {
	name    string
	build   func() *graph.Graph
	sources int
	batch   int
}

func scalingInputs(s Scale) []scalingInput {
	if s == Tiny {
		return []scalingInput{
			{"roadgrid", func() *graph.Graph { return gen.RoadGrid(24, 24, 104) }, 8, 8},
			{"rmat", func() *graph.Graph { return gen.RMAT(9, 8, 103) }, 8, 8},
		}
	}
	return []scalingInput{
		// Square grid: high diameter, long level-synchronous backward
		// phase — the workload the level-sharded accumulation targets.
		{"roadgrid", func() *graph.Graph { return gen.RoadGrid(256, 256, 104) }, 16, 16},
		// Power law: dense frontiers, where forward-phase fan-out and
		// stealing carry the speedup.
		{"rmat", func() *graph.Graph { return gen.RMAT(13, 8, 103) }, 32, 32},
	}
}

// ScalingBench measures the worker sweep. GOMAXPROCS is raised to 8 for
// the duration when the ambient value is lower (and restored), so the
// sweep is limited by hardware, not by an inherited setting; the
// machine's real core count is recorded for CheckScalingBench to gate
// floors on.
func ScalingBench(scale Scale) ScalingReport {
	if runtime.GOMAXPROCS(0) < 8 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	}
	name := "full"
	if scale == Tiny {
		name = "tiny"
	}
	report := ScalingReport{
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Race:       RaceEnabled,
		Scale:      name,
	}
	for _, in := range scalingInputs(scale) {
		g := in.build()
		sources := brandes.FirstKSources(g, 0, in.sources)
		var bucketNs int64
		measure := func(variant string, workers int) {
			opts := core.Options{BatchSize: in.batch, Parallelism: 1, Workers: workers}
			_, stats := core.BC(g, sources, opts) // warm-up + counters
			res := testing.Benchmark(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					core.BC(g, sources, opts)
				}
			})
			row := ScalingRow{
				Input:          in.name,
				Vertices:       g.NumVertices(),
				Edges:          g.NumEdges(),
				Batch:          in.batch,
				Sources:        len(sources),
				Variant:        variant,
				Workers:        workers,
				Iterations:     res.N,
				NsPerOp:        res.NsPerOp(),
				ParallelRounds: stats.ParallelRounds,
				InlineRounds:   stats.InlineRounds,
				Steals:         stats.Steals,
			}
			if variant == "bucket" {
				bucketNs = row.NsPerOp
			}
			if bucketNs > 0 && row.NsPerOp > 0 {
				row.Speedup = float64(bucketNs) / float64(row.NsPerOp)
			}
			report.Rows = append(report.Rows, row)
		}
		measure("bucket", 1)
		for _, w := range scalingWorkerCounts {
			measure("bucket-parallel", w)
		}
	}
	return report
}

// CheckScalingBench validates a report (fresh or committed) against the
// scaling acceptance floors. Structural completeness is always
// enforced; the multi-worker floors arm per row only when the recorded
// machine had the cores and ran uninstrumented, so a document recorded
// on a small box stays honest instead of either failing spuriously or
// inventing speedups.
func CheckScalingBench(r ScalingReport) error {
	parity := ScalingParityFloor
	if r.Scale == "tiny" {
		parity = ScalingParityFloorTiny
	}
	type key struct {
		input   string
		workers int
	}
	seen := make(map[key]ScalingRow)
	inputs := make(map[string]bool)
	for _, row := range r.Rows {
		if row.NsPerOp <= 0 || row.Iterations <= 0 {
			return fmt.Errorf("bench: scaling row %s/%s/w%d carries no measurement", row.Input, row.Variant, row.Workers)
		}
		if row.Variant != "bucket-parallel" {
			continue
		}
		seen[key{row.Input, row.Workers}] = row
		inputs[row.Input] = true
	}
	if len(inputs) == 0 {
		return fmt.Errorf("bench: scaling report has no bucket-parallel rows")
	}
	for input := range inputs {
		for _, w := range scalingWorkerCounts {
			row, ok := seen[key{input, w}]
			if !ok {
				return fmt.Errorf("bench: scaling report is missing %s at %d workers", input, w)
			}
			if w == 1 {
				if row.Speedup < parity {
					return fmt.Errorf("bench: %s Workers=1 speedup %.2f below parity floor %.2f — the serial dispatch gate regressed",
						input, row.Speedup, parity)
				}
				if row.ParallelRounds != 0 || row.Steals != 0 {
					return fmt.Errorf("bench: %s Workers=1 touched the pool (%d parallel rounds, %d steals)",
						input, row.ParallelRounds, row.Steals)
				}
				continue
			}
			floor, guarded := scalingFloors[w]
			if input != "roadgrid" || !guarded {
				continue
			}
			if r.Race || r.NumCPU < w || r.Scale != "full" {
				// Floor not armed: the recording machine could not have
				// delivered the speedup (too few cores, race-detector
				// slowdown), or the run is the tiny smoke sweep, whose
				// graphs are too small to amortize pool dispatch on any
				// hardware. The row still documents the honest
				// measurement.
				continue
			}
			if row.Speedup < floor {
				return fmt.Errorf("bench: %s Workers=%d speedup %.2f below floor %.2f (num_cpu=%d)",
					input, w, row.Speedup, floor, r.NumCPU)
			}
		}
	}
	return nil
}

// LoadScalingBaseline reads a committed scaling document.
func LoadScalingBaseline(path string) (ScalingReport, error) {
	var r ScalingReport
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("bench: %s: %w", path, err)
	}
	if len(r.Rows) == 0 {
		return r, fmt.Errorf("bench: %s carries no rows", path)
	}
	return r, nil
}

// WriteScalingBaseline writes report as the committed document format.
func WriteScalingBaseline(path string, report ScalingReport) error {
	return os.WriteFile(path, []byte(FormatScalingBench(report)+"\n"), 0o644)
}

// FormatScalingBench renders the report as indented JSON.
func FormatScalingBench(r ScalingReport) string {
	out, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		panic(err) // the report is plain data; marshal cannot fail
	}
	return string(out)
}
