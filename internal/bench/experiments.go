package bench

import (
	"time"

	"mrbc/internal/brandes"
	"mrbc/internal/dgalois"
	"mrbc/internal/graph"
	"mrbc/internal/mfbc"
	"mrbc/internal/mrbcdist"
	"mrbc/internal/partition"
	"mrbc/internal/sbbc"
)

// ---------------------------------------------------------------------------
// Table 1: input properties, SBBC vs MRBC rounds per source, and load
// imbalance at scale.
// ---------------------------------------------------------------------------

// Table1Row mirrors one column of the paper's Table 1.
type Table1Row struct {
	Input         Input
	V             int
	E             int64
	MaxOutDegree  int
	MaxInDegree   int
	NumSources    int
	EstDiameter   uint32
	SBBCRounds    float64 // rounds per source
	MRBCRounds    float64
	SBBCImbalance float64
	MRBCImbalance float64
}

// Table1 regenerates Table 1 for the given inputs.
func Table1(inputs []Input, scale Scale) []Table1Row {
	rows := make([]Table1Row, 0, len(inputs))
	for _, in := range inputs {
		g := in.Build()
		sources := brandes.FirstKSources(g, 0, in.NumSources)
		hosts := HostsAtScale(in.Class, scale)
		pt := partition.CartesianCut(g, hosts)

		_, sbbcStats := sbbc.Run(g, pt, sources)
		_, mrbcStats := mrbcdist.Run(g, pt, sources, mrbcdist.Options{BatchSize: in.Batch})

		maxOut, _ := g.MaxOutDegree()
		maxIn, _ := g.MaxInDegree()
		rows = append(rows, Table1Row{
			Input:         in,
			V:             g.NumVertices(),
			E:             g.NumEdges(),
			MaxOutDegree:  maxOut,
			MaxInDegree:   maxIn,
			NumSources:    in.NumSources,
			EstDiameter:   g.EstimateDiameter(sources),
			SBBCRounds:    float64(sbbcStats.Rounds) / float64(in.NumSources),
			MRBCRounds:    float64(mrbcStats.Rounds) / float64(in.NumSources),
			SBBCImbalance: sbbcStats.LoadImbalance,
			MRBCImbalance: mrbcStats.LoadImbalance,
		})
	}
	return rows
}

// ---------------------------------------------------------------------------
// Table 2: execution time per source for each algorithm at its
// best-performing host count.
// ---------------------------------------------------------------------------

// Table2Cell is one algorithm's best result on one input.
type Table2Cell struct {
	Algorithm   string
	PerSource   time.Duration // execution time averaged over sources
	BestHosts   int           // host count attaining it (1 = shared memory)
	OutOfBudget bool          // set when the configuration was skipped
}

// Table2Row holds all algorithms for one input.
type Table2Row struct {
	Input Input
	Cells []Table2Cell
}

// Table2 regenerates Table 2. For small inputs it evaluates ABBC and
// MFBC (shared memory) plus SBBC and MRBC across the host sweep; for
// large inputs only SBBC and MRBC at scale, like the paper.
func Table2(inputs []Input, scale Scale) []Table2Row {
	rows := make([]Table2Row, 0, len(inputs))
	for _, in := range inputs {
		g := in.Build()
		sources := brandes.FirstKSources(g, 0, in.NumSources)
		var cells []Table2Cell
		if in.Class == "small" {
			cells = append(cells, runABBC(g, sources, in), runMFBC(g, sources, in))
		}
		cells = append(cells,
			bestOverHosts("SBBC", g, sources, in, scale, runSBBCOnce),
			bestOverHosts("MRBC", g, sources, in, scale, runMRBCOnce),
		)
		rows = append(rows, Table2Row{Input: in, Cells: cells})
	}
	return rows
}

func perSource(d time.Duration, sources int) time.Duration {
	if sources == 0 {
		return 0
	}
	return d / time.Duration(sources)
}

func runABBC(g *graph.Graph, sources []uint32, in Input) Table2Cell {
	start := time.Now()
	brandes.Async(g, sources, brandes.AsyncConfig{ChunkSize: in.ABBCChunk})
	return Table2Cell{Algorithm: "ABBC", PerSource: perSource(time.Since(start), len(sources)), BestHosts: 1}
}

func runMFBC(g *graph.Graph, sources []uint32, in Input) Table2Cell {
	start := time.Now()
	mfbc.BC(g, sources, mfbc.Options{BatchSize: in.Batch})
	return Table2Cell{Algorithm: "MFBC", PerSource: perSource(time.Since(start), len(sources)), BestHosts: 1}
}

func runSBBCOnce(g *graph.Graph, pt *partition.Partitioning, sources []uint32, in Input) dgalois.Stats {
	_, stats := sbbc.Run(g, pt, sources)
	return stats
}

func runMRBCOnce(g *graph.Graph, pt *partition.Partitioning, sources []uint32, in Input) dgalois.Stats {
	_, stats := mrbcdist.Run(g, pt, sources, mrbcdist.Options{BatchSize: in.Batch})
	return stats
}

func bestOverHosts(name string, g *graph.Graph, sources []uint32, in Input, scale Scale,
	run func(*graph.Graph, *partition.Partitioning, []uint32, Input) dgalois.Stats) Table2Cell {
	hostCounts := []int{1}
	hostCounts = append(hostCounts, HostSweep(scale)...)
	if in.Class == "large" {
		hostCounts = hostCounts[1:] // large inputs are distributed-only, like the paper
	}
	best := Table2Cell{Algorithm: name}
	for _, hosts := range hostCounts {
		pt := partition.CartesianCut(g, hosts)
		start := time.Now()
		run(g, pt, sources, in)
		elapsed := time.Since(start)
		if best.BestHosts == 0 || elapsed < best.PerSource*time.Duration(len(sources)) {
			best.PerSource = perSource(elapsed, len(sources))
			best.BestHosts = hosts
		}
	}
	return best
}

// ---------------------------------------------------------------------------
// Figure 1: MRBC execution time and rounds versus batch size on large
// inputs at scale.
// ---------------------------------------------------------------------------

// Fig1Point is one (input, batch size) measurement.
type Fig1Point struct {
	Input     Input
	Batch     int
	Execution time.Duration
	Rounds    int
}

// Figure1 regenerates the batch-size study on the large inputs.
func Figure1(inputs []Input, scale Scale) []Fig1Point {
	var points []Fig1Point
	for _, in := range inputs {
		if in.Class != "large" {
			continue
		}
		g := in.Build()
		sources := brandes.FirstKSources(g, 0, in.NumSources)
		hosts := HostsAtScale(in.Class, scale)
		pt := partition.CartesianCut(g, hosts)
		for _, k := range BatchSweep(scale) {
			start := time.Now()
			_, stats := mrbcdist.Run(g, pt, sources, mrbcdist.Options{BatchSize: k})
			points = append(points, Fig1Point{
				Input: in, Batch: k,
				Execution: time.Since(start),
				Rounds:    stats.Rounds,
			})
		}
	}
	return points
}

// ---------------------------------------------------------------------------
// Figure 2: breakdown of execution time into computation and
// non-overlapped communication, with communication volume.
// ---------------------------------------------------------------------------

// Fig2Bar is one algorithm bar of Figure 2.
type Fig2Bar struct {
	Input       Input
	Algorithm   string
	Computation time.Duration
	CommTime    time.Duration
	CommBytes   int64
	Rounds      int
}

// Figure2 regenerates the breakdown for the given class ("small" for
// Figure 2a, "large" for Figure 2b) at that class's scale host count.
func Figure2(inputs []Input, class string, scale Scale) []Fig2Bar {
	var bars []Fig2Bar
	for _, in := range inputs {
		if in.Class != class {
			continue
		}
		g := in.Build()
		sources := brandes.FirstKSources(g, 0, in.NumSources)
		hosts := HostsAtScale(in.Class, scale)
		pt := partition.CartesianCut(g, hosts)

		_, s := sbbc.Run(g, pt, sources)
		bars = append(bars, Fig2Bar{Input: in, Algorithm: "SBBC",
			Computation: s.ComputeTime, CommTime: s.CommTime, CommBytes: s.Bytes, Rounds: s.Rounds})

		_, m := mrbcdist.Run(g, pt, sources, mrbcdist.Options{BatchSize: in.Batch})
		bars = append(bars, Fig2Bar{Input: in, Algorithm: "MRBC",
			Computation: m.ComputeTime, CommTime: m.CommTime, CommBytes: m.Bytes, Rounds: m.Rounds})
	}
	return bars
}

// ---------------------------------------------------------------------------
// Figure 3: strong scaling of execution and computation time on the
// large inputs across the host sweep.
// ---------------------------------------------------------------------------

// Fig3Point is one (input, algorithm, hosts) measurement.
type Fig3Point struct {
	Input       Input
	Algorithm   string
	Hosts       int
	Execution   time.Duration
	Computation time.Duration
}

// Figure3 regenerates the strong-scaling study.
func Figure3(inputs []Input, scale Scale) []Fig3Point {
	var points []Fig3Point
	for _, in := range inputs {
		if in.Class != "large" {
			continue
		}
		g := in.Build()
		sources := brandes.FirstKSources(g, 0, in.NumSources)
		for _, hosts := range HostSweep(scale) {
			pt := partition.CartesianCut(g, hosts)

			start := time.Now()
			_, s := sbbc.Run(g, pt, sources)
			points = append(points, Fig3Point{Input: in, Algorithm: "SBBC", Hosts: hosts,
				Execution: time.Since(start), Computation: s.ComputeTime})

			start = time.Now()
			_, m := mrbcdist.Run(g, pt, sources, mrbcdist.Options{BatchSize: in.Batch})
			points = append(points, Fig3Point{Input: in, Algorithm: "MRBC", Hosts: hosts,
				Execution: time.Since(start), Computation: m.ComputeTime})
		}
	}
	return points
}

// ---------------------------------------------------------------------------
// Summary: the paper's headline aggregates (§1, §5.3).
// ---------------------------------------------------------------------------

// Summary holds the headline ratios; each is a geometric mean across
// the inputs where both sides ran.
type Summary struct {
	RoundReduction float64 // SBBC rounds / MRBC rounds (paper: 14.0x)
	CommReduction  float64 // SBBC comm time / MRBC comm time (paper: 2.8x)
	VolumeRatio    float64 // SBBC bytes / MRBC bytes
	Inputs         int
}

// Summarize computes the headline ratios at each input's scale host
// count.
func Summarize(inputs []Input, scale Scale) Summary {
	var sum Summary
	logRounds, logComm, logVol := 0.0, 0.0, 0.0
	for _, in := range inputs {
		g := in.Build()
		sources := brandes.FirstKSources(g, 0, in.NumSources)
		pt := partition.CartesianCut(g, HostsAtScale(in.Class, scale))
		_, s := sbbc.Run(g, pt, sources)
		_, m := mrbcdist.Run(g, pt, sources, mrbcdist.Options{BatchSize: in.Batch})
		if m.Rounds == 0 || m.Bytes == 0 || m.CommTime == 0 {
			continue
		}
		logRounds += ln(float64(s.Rounds) / float64(m.Rounds))
		logComm += ln(float64(s.CommTime) / float64(m.CommTime))
		logVol += ln(float64(s.Bytes) / float64(m.Bytes))
		sum.Inputs++
	}
	if sum.Inputs > 0 {
		n := float64(sum.Inputs)
		sum.RoundReduction = exp(logRounds / n)
		sum.CommReduction = exp(logComm / n)
		sum.VolumeRatio = exp(logVol / n)
	}
	return sum
}
