package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"mrbc/internal/brandes"
	"mrbc/internal/clusterrun"
	"mrbc/internal/gen"
	"mrbc/internal/graph"
)

// ---------------------------------------------------------------------------
// Pipelined-exchange benchmark: wall time across PipelineDepth 1/2/4 on
// the in-process transport and a real localhost TCP cluster (bcd
// daemons via internal/clusterrun), with the overlap-efficiency metric
// — the fraction of exchange wait the pipeline hid behind compute.
// `bcbench -exp pipeline` emits the JSON committed as
// BENCH_pipeline.json; the regress guard re-validates that document
// against CheckPipelineBench.
//
// The TCP speedup floor is honest about hardware: it arms only for a full-scale document recorded without the
// race detector on a machine with at least as many cores as cluster
// processes. A single-core box cannot overlap four processes' compute
// with anything, so its document stays a structural record, not a
// fabricated speedup.
// ---------------------------------------------------------------------------

// PipelineBaselineFile is the committed pipeline document's file name.
const PipelineBaselineFile = "BENCH_pipeline.json"

// PipelineTCPFloor is the minimum depth≥2 over depth-1 wall-time
// speedup on the localhost TCP cluster, when armed: the latency-bound
// configuration (small batches, 4 processes) pays full wire latency
// every round at depth 1, which is exactly what the pipeline hides.
const PipelineTCPFloor = 1.25

// pipelineDepths is the measured in-flight window sweep.
var pipelineDepths = []int{1, 2, 4}

// PipelineRow is one (transport, depth) measurement.
type PipelineRow struct {
	Transport string `json:"transport"` // inproc | tcp
	Input     string `json:"input"`
	Vertices  int    `json:"vertices"`
	Edges     int64  `json:"edges"`
	Hosts     int    `json:"hosts"`
	Sources   int    `json:"sources"`
	Batch     int    `json:"batch"`
	Depth     int    `json:"depth"`

	// WallNs is the best-of-3 wall time.
	WallNs int64 `json:"wall_ns"`
	// Deterministic volume: identical across depths by construction.
	Bytes    int64 `json:"bytes"`
	Messages int64 `json:"messages"`
	Rounds   int   `json:"rounds"`
	// CommNs is exchange wait on the critical path; HiddenNs is exchange
	// wait hidden behind other batches' compute (summed across hosts).
	CommNs   int64 `json:"comm_ns"`
	HiddenNs int64 `json:"hidden_ns"`
	// OverlapEff = HiddenNs / (CommNs + HiddenNs): the fraction of total
	// exchange wait the pipeline took off the critical path.
	OverlapEff float64 `json:"overlap_eff"`
	// Speedup is the same transport's depth-1 wall time over this row's.
	Speedup float64 `json:"speedup"`
}

// PipelineReport is the top-level JSON document (and baseline format).
type PipelineReport struct {
	GoMaxProcs int           `json:"gomaxprocs"`
	NumCPU     int           `json:"num_cpu"`
	Race       bool          `json:"race"`
	Scale      string        `json:"scale"`
	Rows       []PipelineRow `json:"rows"`
}

// pipelineConfig is the latency-bound workload: batches small enough
// that exchanges dominate, 4 hosts so every round crosses the wire.
type pipelineConfig struct {
	input   string
	build   func() *graph.Graph
	hosts   int
	sources int
	batch   int
}

func pipelineConfigAt(scale Scale) pipelineConfig {
	if scale == Tiny {
		return pipelineConfig{"rmat", func() *graph.Graph { return gen.RMAT(8, 8, 7) }, 4, 16, 4}
	}
	return pipelineConfig{"rmat", func() *graph.Graph { return gen.RMAT(11, 8, 103) }, 4, 32, 4}
}

// PipelineBench measures the depth sweep on both transports. bcdPath
// must point at a built bcd daemon binary for the TCP leg.
func PipelineBench(scale Scale, bcdPath string) (PipelineReport, error) {
	name := "full"
	if scale == Tiny {
		name = "tiny"
	}
	report := PipelineReport{
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Race:       RaceEnabled,
		Scale:      name,
	}
	cfg := pipelineConfigAt(scale)
	g := cfg.build()
	sources := brandes.FirstKSources(g, 0, cfg.sources)
	// Both legs run the identical JobSpec, loading the graph from the
	// same staged canonical file the daemons read.
	path, cleanup, err := stageGraph(g)
	if err != nil {
		return report, err
	}
	defer cleanup()

	// In-process leg: the whole simulated cluster in one process.
	var inprocBase int64
	for _, depth := range pipelineDepths {
		row := PipelineRow{
			Transport: "inproc", Input: cfg.input,
			Vertices: g.NumVertices(), Edges: g.NumEdges(),
			Hosts: cfg.hosts, Sources: len(sources), Batch: cfg.batch, Depth: depth,
		}
		spec := pipelineSpec(cfg, path, sources, depth)
		run := func() (*clusterrun.JobResult, error) {
			res, err := clusterrun.RunJob(&spec, nil, nil, Telemetry)
			if err == nil && res.Fault != nil {
				err = res.Fault.AsError()
			}
			return res, err
		}
		res, err := run() // warm-up
		if err != nil {
			return report, err
		}
		row.Bytes, row.Messages, row.Rounds = res.Bytes, res.Messages, res.Rounds
		for rep := 0; rep < 3; rep++ {
			t0 := time.Now()
			res, err = run()
			wall := time.Since(t0).Nanoseconds()
			if err != nil {
				return report, err
			}
			if res.Bytes != row.Bytes || res.Messages != row.Messages || res.Rounds != row.Rounds {
				return report, fmt.Errorf("bench: inproc depth %d volume is not deterministic across runs", depth)
			}
			if row.WallNs == 0 || wall < row.WallNs {
				row.WallNs = wall
				row.CommNs, row.HiddenNs = res.CommNs, res.HiddenNs
			}
		}
		if depth == 1 {
			inprocBase = row.WallNs
		}
		finishPipelineRow(&row, inprocBase)
		report.Rows = append(report.Rows, row)
	}

	// TCP leg: one spawned bcd process per host, reused across the
	// sweep like the chaos suite reuses its cluster.
	cluster, err := clusterrun.Launch(clusterrun.ClusterOptions{BcdPath: bcdPath, Hosts: cfg.hosts})
	if err != nil {
		return report, err
	}
	defer cluster.Close()
	var tcpBase int64
	for _, depth := range pipelineDepths {
		row := PipelineRow{
			Transport: "tcp", Input: cfg.input,
			Vertices: g.NumVertices(), Edges: g.NumEdges(),
			Hosts: cfg.hosts, Sources: len(sources), Batch: cfg.batch, Depth: depth,
		}
		spec := pipelineSpec(cfg, path, sources, depth)
		run := func() (*clusterrun.Aggregate, error) {
			return cluster.Run(spec, clusterrun.RunOptions{})
		}
		agg, err := run() // warm-up
		if err != nil {
			return report, err
		}
		row.Bytes, row.Messages, row.Rounds = agg.Bytes, agg.Messages, agg.Rounds
		for rep := 0; rep < 3; rep++ {
			t0 := time.Now()
			agg, err = run()
			wall := time.Since(t0).Nanoseconds()
			if err != nil {
				return report, err
			}
			if agg.Bytes != row.Bytes || agg.Messages != row.Messages || agg.Rounds != row.Rounds {
				return report, fmt.Errorf("bench: tcp depth %d volume is not deterministic across runs", depth)
			}
			if row.WallNs == 0 || wall < row.WallNs {
				row.WallNs = wall
				row.CommNs, row.HiddenNs = 0, 0
				for _, res := range agg.PerHost {
					row.CommNs += res.CommNs
					row.HiddenNs += res.HiddenNs
				}
			}
		}
		if depth == 1 {
			tcpBase = row.WallNs
		}
		finishPipelineRow(&row, tcpBase)
		report.Rows = append(report.Rows, row)
	}
	return report, nil
}

func pipelineSpec(cfg pipelineConfig, graphPath string, sources []uint32, depth int) clusterrun.JobSpec {
	return clusterrun.JobSpec{
		GraphPath:     graphPath,
		Hosts:         cfg.hosts,
		Sources:       sources,
		BatchSize:     cfg.batch,
		PipelineDepth: depth,
	}
}

func finishPipelineRow(row *PipelineRow, baseWall int64) {
	if baseWall > 0 && row.WallNs > 0 {
		row.Speedup = float64(baseWall) / float64(row.WallNs)
	}
	if tot := row.CommNs + row.HiddenNs; tot > 0 {
		row.OverlapEff = float64(row.HiddenNs) / float64(tot)
	}
}

// stageGraph writes g as a canonical graph file in a fresh temp
// directory (every cluster job loads its graph from disk).
func stageGraph(g *graph.Graph) (string, func(), error) {
	dir, err := os.MkdirTemp("", "bench-pipeline-*")
	if err != nil {
		return "", nil, err
	}
	path := filepath.Join(dir, "input.gr")
	if err := g.Save(path); err != nil {
		os.RemoveAll(dir)
		return "", nil, err
	}
	return path, func() { os.RemoveAll(dir) }, nil
}

// CheckPipelineBench validates a report (fresh or committed) against
// the pipeline acceptance guards. Structure is always enforced: both
// transports, the full depth sweep, exact volume agreement across
// depths, and zero hidden time at depth 1 (the serial path must not
// invent overlap). The TCP speedup floor arms only when the recording
// machine could have delivered it.
func CheckPipelineBench(r PipelineReport) error {
	type key struct {
		transport string
		depth     int
	}
	rows := make(map[key]PipelineRow, len(r.Rows))
	for _, row := range r.Rows {
		if row.WallNs <= 0 {
			return fmt.Errorf("bench: pipeline row %s/depth%d carries no measurement", row.Transport, row.Depth)
		}
		if row.OverlapEff < 0 || row.OverlapEff > 1 {
			return fmt.Errorf("bench: pipeline row %s/depth%d overlap efficiency %.3f outside [0,1]", row.Transport, row.Depth, row.OverlapEff)
		}
		rows[key{row.Transport, row.Depth}] = row
	}
	for _, transport := range []string{"inproc", "tcp"} {
		base, ok := rows[key{transport, 1}]
		if !ok {
			return fmt.Errorf("bench: pipeline report is missing the %s depth-1 baseline", transport)
		}
		if base.HiddenNs != 0 || base.OverlapEff != 0 {
			return fmt.Errorf("bench: %s depth-1 row claims %dns hidden time — the serial path must not overlap", transport, base.HiddenNs)
		}
		bestSpeedup := 0.0
		for _, depth := range pipelineDepths {
			row, ok := rows[key{transport, depth}]
			if !ok {
				return fmt.Errorf("bench: pipeline report is missing %s at depth %d", transport, depth)
			}
			if row.Bytes != base.Bytes || row.Messages != base.Messages || row.Rounds != base.Rounds {
				return fmt.Errorf("bench: %s depth-%d volume (%d B, %d msgs, %d rounds) diverged from depth 1 (%d B, %d msgs, %d rounds) — pipelining changed the protocol",
					transport, depth, row.Bytes, row.Messages, row.Rounds, base.Bytes, base.Messages, base.Rounds)
			}
			if depth > 1 && row.Speedup > bestSpeedup {
				bestSpeedup = row.Speedup
			}
		}
		if transport != "tcp" {
			continue
		}
		if r.Race || r.Scale != "full" || r.NumCPU < base.Hosts {
			// Floor not armed: the race detector serializes everything, the
			// tiny sweep's exchanges are too small to hide anything, and a
			// machine with fewer cores than cluster processes has no spare
			// compute to overlap with. The rows still document the honest
			// measurement.
			continue
		}
		if bestSpeedup < PipelineTCPFloor {
			return fmt.Errorf("bench: tcp pipelined speedup %.2f below floor %.2f (num_cpu=%d)",
				bestSpeedup, PipelineTCPFloor, r.NumCPU)
		}
	}
	return nil
}

// LoadPipelineBaseline reads a committed pipeline document.
func LoadPipelineBaseline(path string) (PipelineReport, error) {
	var r PipelineReport
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

// WritePipelineBaseline writes report as the committed document format.
func WritePipelineBaseline(path string, report PipelineReport) error {
	return os.WriteFile(path, []byte(FormatPipelineBench(report)+"\n"), 0o644)
}

// FormatPipelineBench renders the report as indented JSON.
func FormatPipelineBench(r PipelineReport) string {
	out, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		panic(err) // the report is plain data; marshal cannot fail
	}
	return string(out)
}
