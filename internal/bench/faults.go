package bench

import (
	"encoding/json"
	"runtime"
	"testing"

	"mrbc/internal/brandes"
	"mrbc/internal/dgalois"
	"mrbc/internal/gen"
	"mrbc/internal/graph"
	"mrbc/internal/mrbcdist"
	"mrbc/internal/partition"
	"mrbc/internal/sbbc"
)

// ---------------------------------------------------------------------------
// Fault-tolerance overhead: cost of the framed ack/retry transport
// relative to the idealized exchange, fault-free and under a moderate
// fault plan. Not part of the paper's evaluation; this documents the
// reliability layer (DESIGN.md §6, "Fault injection"). `bcbench -exp
// faults` emits the JSON checked in as BENCH_faults.json. Paper-model
// Bytes/Messages are reported alongside the transport's own retry and
// framing byte counters to show the two accountings stay separate.
// ---------------------------------------------------------------------------

// FaultBenchRow is one (engine, mode) measurement on a fixed input.
type FaultBenchRow struct {
	Engine        string  `json:"engine"` // mrbc-arb | sbbc
	Mode          string  `json:"mode"`   // raw | framed | faulty
	Hosts         int     `json:"hosts"`
	Iterations    int     `json:"iterations"`
	NsPerOp       int64   `json:"ns_per_op"`
	OverheadVsRaw float64 `json:"overhead_vs_raw"` // ns ratio, 1.0 = free
	PaperBytes    int64   `json:"paper_bytes"`     // logical sync volume (identical across modes)
	PaperMessages int64   `json:"paper_messages"`
	FrameBytes    int64   `json:"frame_bytes"` // framing overhead, framed/faulty only
	RetryBytes    int64   `json:"retry_bytes"` // retransmitted payload, faulty only
	RetryMessages int64   `json:"retry_msgs"`  // retransmissions, faulty only
	AckBytes      int64   `json:"ack_bytes"`   // ack traffic, framed/faulty only
	DeliverySteps int64   `json:"delivery_steps"`
}

// FaultBenchReport is the top-level JSON document.
type FaultBenchReport struct {
	GoMaxProcs int             `json:"gomaxprocs"`
	Input      string          `json:"input"`
	Vertices   int             `json:"vertices"`
	Edges      int64           `json:"edges"`
	Sources    int             `json:"sources"`
	FaultPlan  string          `json:"fault_plan"` // human summary of the faulty mode's plan
	Rows       []FaultBenchRow `json:"rows"`
}

// faultBenchPlan is the moderate schedule used by the "faulty" mode:
// every fault kind active at a few percent, the regime the chaos sweep
// exercises at up to 20%.
func faultBenchPlan() *dgalois.FaultPlan {
	return &dgalois.FaultPlan{
		Seed: 2026, Drop: 0.05, Dup: 0.03, Delay: 0.05,
		Truncate: 0.02, Corrupt: 0.02, Reorder: 0.05, AckDrop: 0.03,
		MaxDelaySteps: 2,
	}
}

// FaultBench measures each engine under three transport modes: raw
// (nil plan: the idealized exchange), framed (zero-rate plan: seq,
// checksum, ack machinery active but nothing injected — the pure
// protocol overhead), and faulty (the moderate plan above — recovery
// cost included).
func FaultBench(scale Scale) FaultBenchReport {
	const hosts = 4
	var g *graph.Graph
	numSrc := 32
	if scale == Tiny {
		g = gen.RMAT(8, 8, 2026)
		numSrc = 8
	} else {
		g = gen.RMAT(12, 8, 2026)
	}
	sources := brandes.FirstKSources(g, 0, numSrc)
	pt := partition.EdgeCut(g, hosts)
	report := FaultBenchReport{
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Input:      "rmat",
		Vertices:   g.NumVertices(),
		Edges:      g.NumEdges(),
		Sources:    len(sources),
		FaultPlan:  "drop 5% dup 3% delay 5% truncate 2% corrupt 2% reorder 5% ackdrop 3%",
	}

	type eng struct {
		name string
		run  func(plan *dgalois.FaultPlan) dgalois.Stats
	}
	engs := []eng{
		{"mrbc-arb", func(plan *dgalois.FaultPlan) dgalois.Stats {
			_, st, err := mrbcdist.RunChecked(g, pt, sources, mrbcdist.Options{BatchSize: 8, Fault: plan})
			if err != nil {
				panic(err)
			}
			return st
		}},
		{"sbbc", func(plan *dgalois.FaultPlan) dgalois.Stats {
			_, st, err := sbbc.RunOptsChecked(g, pt, sources, sbbc.Options{Fault: plan})
			if err != nil {
				panic(err)
			}
			return st
		}},
	}
	modes := []struct {
		name string
		plan func() *dgalois.FaultPlan
	}{
		{"raw", func() *dgalois.FaultPlan { return nil }},
		{"framed", func() *dgalois.FaultPlan { return &dgalois.FaultPlan{Seed: 1} }},
		{"faulty", faultBenchPlan},
	}

	for _, e := range engs {
		var rawNs int64
		for _, m := range modes {
			stats := e.run(m.plan()) // warm-up + stats capture
			res := testing.Benchmark(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					e.run(m.plan())
				}
			})
			row := FaultBenchRow{
				Engine:        e.name,
				Mode:          m.name,
				Hosts:         hosts,
				Iterations:    res.N,
				NsPerOp:       res.NsPerOp(),
				PaperBytes:    stats.Bytes,
				PaperMessages: stats.Messages,
			}
			if f := stats.Faults; f != nil {
				row.FrameBytes = f.FrameBytes
				row.RetryBytes = f.RetryBytes
				row.RetryMessages = f.RetryMessages
				row.AckBytes = f.AckBytes
				row.DeliverySteps = f.DeliverySteps
			}
			if m.name == "raw" {
				rawNs = row.NsPerOp
			}
			if rawNs > 0 && row.NsPerOp > 0 {
				row.OverheadVsRaw = float64(row.NsPerOp) / float64(rawNs)
			}
			report.Rows = append(report.Rows, row)
		}
	}
	return report
}

// FormatFaultBench renders the report as indented JSON.
func FormatFaultBench(r FaultBenchReport) string {
	out, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		panic(err) // the report is plain data; marshal cannot fail
	}
	return string(out)
}
