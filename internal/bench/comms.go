package bench

import (
	"encoding/json"
	"fmt"
	"runtime"

	"mrbc/internal/brandes"
	"mrbc/internal/gen"
	"mrbc/internal/gluon"
	"mrbc/internal/graph"
	"mrbc/internal/mrbcdist"
	"mrbc/internal/partition"
)

// ---------------------------------------------------------------------------
// Communication-volume comparison: the seed dense-bitvector wire format
// vs the density-adaptive encoding (DESIGN.md, "Sync wire format").
// Not part of the paper's evaluation; this documents the substrate's
// metadata compression, the Gluon feature §4.1/§5.3 attribute the
// communication win to. `bcbench -exp comms` emits the JSON checked in
// as BENCH_comms.json and doubles as the CI regression guard for the
// selection rule (adaptive must never exceed dense).
// ---------------------------------------------------------------------------

// CommsBenchRow compares the encodings for one input, running MRBC
// (arbitration sync) end to end under each.
type CommsBenchRow struct {
	Input    string `json:"input"`
	Vertices int    `json:"vertices"`
	Edges    int64  `json:"edges"`
	Hosts    int    `json:"hosts"`
	Sources  int    `json:"sources"`
	Batch    int    `json:"batch"`

	// SeedDenseBytes is the volume of the seed wire format: the forced-
	// dense volume minus the one-byte format header the adaptive layer
	// added to every message (the seed had no header), i.e. exactly
	// what the seed implementation would have reported.
	SeedDenseBytes int64 `json:"seed_dense_bytes"`
	DenseBytes     int64 `json:"dense_bytes"`    // forced FormatDense, header included
	AdaptiveBytes  int64 `json:"adaptive_bytes"` // FormatAuto selection
	Messages       int64 `json:"messages"`       // identical across encodings

	// Mix is the adaptive run's per-format message breakdown.
	Mix gluon.EncodingCounts `json:"format_mix"`

	DenseCommNs    int64 `json:"dense_comm_ns"` // non-overlapped comm wall time
	AdaptiveCommNs int64 `json:"adaptive_comm_ns"`

	// ReductionVsSeed is SeedDenseBytes / AdaptiveBytes (higher is
	// better; 1.0 = no change).
	ReductionVsSeed float64 `json:"reduction_vs_seed"`
}

// CommsBenchReport is the top-level JSON document.
type CommsBenchReport struct {
	GoMaxProcs int             `json:"gomaxprocs"`
	Scale      string          `json:"scale"`
	Rows       []CommsBenchRow `json:"rows"`
}

type commsInput struct {
	name    string
	build   func() *graph.Graph
	sources int
	batch   int
	hosts   int
}

func commsInputs(s Scale) []commsInput {
	// Road inputs are relabeled: real road datasets carry no numbering
	// locality, so block partitioners give every host long shared proxy
	// lists of which each BFS round marks only the thin wavefront — the
	// sparse-index regime the adaptive encoding targets.
	if s == Tiny {
		return []commsInput{
			{"road-corridor", func() *graph.Graph { return gen.ShuffleIDs(gen.RoadGrid(60, 6, 104), 105) }, 4, 4, 2},
			{"rmat", func() *graph.Graph { return gen.RMAT(9, 8, 103) }, 8, 8, 2},
		}
	}
	return []commsInput{
		// Extreme diameter, thousands of rounds each marking a handful
		// of wavefront vertices out of long lists: metadata dominates
		// dense volume and sparse collapses it.
		{"road-corridor", func() *graph.Graph { return gen.ShuffleIDs(gen.RoadGrid(8000, 1, 104), 105) }, 8, 2, 4},
		// Same generator with its native row-major numbering: boundary-
		// only proxy lists, the locality-friendly best case for dense.
		{"road-local", func() *graph.Graph { return gen.RoadGrid(80, 80, 104) }, 8, 8, 4},
		// Low diameter, bulk rounds: marked density is high, so dense
		// (or all-marked) stays the pick and adaptive must merely not
		// regress.
		{"rmat", func() *graph.Graph { return gen.RMAT(13, 8, 103) }, 32, 32, 4},
	}
}

// CommsBench runs MRBC under the forced-dense (seed) and adaptive
// encodings on each input and reports volumes, format mix, and
// non-overlapped communication time.
func CommsBench(scale Scale) CommsBenchReport {
	name := "full"
	if scale == Tiny {
		name = "tiny"
	}
	report := CommsBenchReport{GoMaxProcs: runtime.GOMAXPROCS(0), Scale: name}
	for _, in := range commsInputs(scale) {
		g := in.build()
		sources := brandes.FirstKSources(g, 0, in.sources)
		pt := partition.CartesianCut(g, in.hosts)

		run := func(f gluon.Format) dgaloisStats {
			_, st := mrbcdist.Run(g, pt, sources, mrbcdist.Options{BatchSize: in.batch, Encoding: f})
			return dgaloisStats{st.Bytes, st.Messages, st.CommTime.Nanoseconds(), st.Encoding}
		}
		dense := run(gluon.FormatDense)
		adaptive := run(gluon.FormatAuto)

		row := CommsBenchRow{
			Input:          in.name,
			Vertices:       g.NumVertices(),
			Edges:          g.NumEdges(),
			Hosts:          in.hosts,
			Sources:        len(sources),
			Batch:          in.batch,
			SeedDenseBytes: dense.bytes - dense.messages,
			DenseBytes:     dense.bytes,
			AdaptiveBytes:  adaptive.bytes,
			Messages:       adaptive.messages,
			Mix:            adaptive.encoding,
			DenseCommNs:    dense.commNs,
			AdaptiveCommNs: adaptive.commNs,
		}
		if adaptive.bytes > 0 {
			row.ReductionVsSeed = float64(row.SeedDenseBytes) / float64(adaptive.bytes)
		}
		report.Rows = append(report.Rows, row)
	}
	return report
}

// dgaloisStats is the slice of dgalois.Stats the comparison consumes.
type dgaloisStats struct {
	bytes    int64
	messages int64
	commNs   int64
	encoding gluon.EncodingCounts
}

// CheckCommsBench is the regression guard for the selection rule: the
// adaptive encoding must not exceed the forced-dense volume on any row
// (it picks per message among dense/sparse/all, so it is ≤ dense by
// construction — a violation means the picker or an encoder is wrong),
// and every adaptive message must be accounted to a format.
func CheckCommsBench(r CommsBenchReport) error {
	for _, row := range r.Rows {
		if row.AdaptiveBytes > row.DenseBytes {
			return fmt.Errorf("bench: adaptive volume %d B exceeds dense %d B on input %q",
				row.AdaptiveBytes, row.DenseBytes, row.Input)
		}
		if got := row.Mix.Total(); got != row.Messages {
			return fmt.Errorf("bench: format mix covers %d of %d messages on input %q",
				got, row.Messages, row.Input)
		}
	}
	return nil
}

// FormatCommsBench renders the report as indented JSON.
func FormatCommsBench(r CommsBenchReport) string {
	out, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		panic(err) // the report is plain data; marshal cannot fail
	}
	return string(out)
}
