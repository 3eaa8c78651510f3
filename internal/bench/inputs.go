// Package bench defines the experiment harness that regenerates every
// table and figure of the paper's evaluation (Section 5) at laptop
// scale: the input suite (one synthetic stand-in per paper input, per
// the substitution table in DESIGN.md §3), the per-experiment runners,
// and plain-text table formatting.
package bench

import (
	"fmt"

	"mrbc/internal/gen"
	"mrbc/internal/graph"
)

// Scale selects the size of the workload: Full regenerates the
// evaluation at the largest size that still runs on one machine in
// minutes; Tiny is for tests and quick smoke runs.
type Scale int

const (
	// Tiny runs in seconds; used by the test suite.
	Tiny Scale = iota
	// Full is cmd/bcbench's default.
	Full
)

// Input is one graph of the evaluation suite.
type Input struct {
	// Name is our identifier; PaperInput names the Table 1 input it
	// substitutes for.
	Name       string
	PaperInput string
	// Class is "small" or "large", mirroring the paper's split (§5.1):
	// small inputs are evaluated on few hosts, large inputs at scale.
	Class string
	// Build constructs the graph (deterministic).
	Build func() *graph.Graph
	// NumSources is the sampled source count (Table 1 row "# of
	// Sources").
	NumSources int
	// Batch is the MRBC batch size for this input (§5.2: 32 for small
	// inputs, 64 for large).
	Batch int
	// ABBCChunk is the ABBC worklist chunk size (§5.2: 64 for
	// road-europe, 8 otherwise).
	ABBCChunk int
}

// Suite returns the evaluation inputs at the given scale, in the
// paper's Table 1 order.
func Suite(s Scale) []Input {
	if s == Tiny {
		return []Input{
			{Name: "social", PaperInput: "livejournal", Class: "small",
				Build:      func() *graph.Graph { return gen.RMAT(9, 8, 101) },
				NumSources: 16, Batch: 8, ABBCChunk: 8},
			{Name: "webcrawl-small", PaperInput: "indochina04", Class: "small",
				Build:      func() *graph.Graph { return gen.WebCrawl(8, 8, 3, 20, 102) },
				NumSources: 16, Batch: 8, ABBCChunk: 8},
			{Name: "rmat", PaperInput: "rmat24", Class: "small",
				Build:      func() *graph.Graph { return gen.RMAT(9, 16, 103) },
				NumSources: 16, Batch: 8, ABBCChunk: 8},
			{Name: "road", PaperInput: "road-europe", Class: "small",
				Build:      func() *graph.Graph { return gen.RoadGrid(24, 24, 104) },
				NumSources: 4, Batch: 4, ABBCChunk: 64},
			{Name: "social-big", PaperInput: "friendster", Class: "small",
				Build:      func() *graph.Graph { return gen.RMAT(10, 12, 105) },
				NumSources: 16, Batch: 8, ABBCChunk: 8},
			{Name: "kron", PaperInput: "kron30", Class: "large",
				Build:      func() *graph.Graph { return gen.Kronecker(10, 16, 106) },
				NumSources: 16, Batch: 16, ABBCChunk: 8},
			{Name: "webcrawl-gsh", PaperInput: "gsh15", Class: "large",
				Build:      func() *graph.Graph { return gen.WebCrawl(9, 8, 4, 40, 107) },
				NumSources: 8, Batch: 8, ABBCChunk: 8},
			{Name: "webcrawl-clue", PaperInput: "clueweb12", Class: "large",
				Build:      func() *graph.Graph { return gen.WebCrawl(9, 8, 3, 80, 108) },
				NumSources: 8, Batch: 8, ABBCChunk: 8},
		}
	}
	return []Input{
		{Name: "social", PaperInput: "livejournal", Class: "small",
			Build:      func() *graph.Graph { return gen.RMAT(13, 8, 101) },
			NumSources: 64, Batch: 32, ABBCChunk: 8},
		{Name: "webcrawl-small", PaperInput: "indochina04", Class: "small",
			Build:      func() *graph.Graph { return gen.WebCrawl(12, 12, 8, 30, 102) },
			NumSources: 64, Batch: 32, ABBCChunk: 8},
		{Name: "rmat", PaperInput: "rmat24", Class: "small",
			Build:      func() *graph.Graph { return gen.RMAT(13, 16, 103) },
			NumSources: 64, Batch: 32, ABBCChunk: 8},
		{Name: "road", PaperInput: "road-europe", Class: "small",
			Build:      func() *graph.Graph { return gen.RoadGrid(80, 80, 104) },
			NumSources: 8, Batch: 8, ABBCChunk: 64},
		{Name: "social-big", PaperInput: "friendster", Class: "small",
			Build:      func() *graph.Graph { return gen.RMAT(14, 16, 105) },
			NumSources: 64, Batch: 32, ABBCChunk: 8},
		{Name: "kron", PaperInput: "kron30", Class: "large",
			Build:      func() *graph.Graph { return gen.Kronecker(14, 16, 106) },
			NumSources: 64, Batch: 64, ABBCChunk: 8},
		{Name: "webcrawl-gsh", PaperInput: "gsh15", Class: "large",
			Build:      func() *graph.Graph { return gen.WebCrawl(13, 10, 12, 60, 107) },
			NumSources: 32, Batch: 64, ABBCChunk: 8},
		{Name: "webcrawl-clue", PaperInput: "clueweb12", Class: "large",
			Build:      func() *graph.Graph { return gen.WebCrawl(13, 12, 10, 120, 108) },
			NumSources: 32, Batch: 64, ABBCChunk: 8},
	}
}

// HostsAtScale returns the "at scale" host count for an input class:
// the stand-in for the paper's 32 hosts (small) and 256 hosts (large).
func HostsAtScale(class string, s Scale) int {
	if s == Tiny {
		return 2
	}
	if class == "large" {
		return 8
	}
	return 4
}

// HostSweep returns the strong-scaling host counts for large inputs
// (the stand-in for the paper's 64/128/256 sweep in Figure 3).
func HostSweep(s Scale) []int {
	if s == Tiny {
		return []int{2, 4}
	}
	return []int{2, 4, 8}
}

// BatchSweep returns the Figure 1 batch sizes (paper: 32/64/128).
func BatchSweep(s Scale) []int {
	if s == Tiny {
		return []int{4, 8, 16}
	}
	return []int{16, 32, 64, 128}
}

// Find returns the input with the given name.
func Find(inputs []Input, name string) (Input, error) {
	for _, in := range inputs {
		if in.Name == name {
			return in, nil
		}
	}
	return Input{}, fmt.Errorf("bench: unknown input %q", name)
}
