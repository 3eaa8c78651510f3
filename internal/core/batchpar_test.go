package core

import (
	"math"
	"runtime"
	"strings"
	"testing"

	"mrbc/internal/brandes"
	"mrbc/internal/gen"
	"mrbc/internal/graph"
)

// TestBatchParallelBitwise is the exactness pin of the batch-parallel
// plan: for every Parallelism and every schedule the ordered retire lets
// happen, each score has the bits the serial loop (Parallelism: 1)
// computes, and RunStats equals the serial loop's.
func TestBatchParallelBitwise(t *testing.T) {
	old := runtime.GOMAXPROCS(4) // Parallelism: 0 must plan several engines
	defer runtime.GOMAXPROCS(old)

	// Two components: sources in one never reach the other.
	split := graph.NewBuilder(60)
	for v := uint32(0); v < 29; v++ {
		split.AddEdge(v, v+1)
		split.AddEdge(v+1, v)
		split.AddEdge(30+v, 31+v)
		split.AddEdge(30+(v*7)%30, 30+(v*11)%30)
	}
	inputs := []struct {
		name       string
		g          *graph.Graph
		numSources int
		batch      int
	}{
		{"rmat", gen.RMAT(9, 8, 31), 64, 8},
		{"roadgrid", gen.RoadGrid(14, 22, 3), 48, 8},
		{"webcrawl", gen.WebCrawl(7, 6, 3, 25, 5), 40, 8},
		{"unreachable", split.Build(), 60, 8},
		{"short-last-batch", gen.RMAT(8, 8, 7), 45, 8}, // 5 batches of 8 and one of 5
	}
	repeats := 10
	if testing.Short() {
		repeats = 3
	}
	for _, in := range inputs {
		t.Run(in.name, func(t *testing.T) {
			sources := brandes.FirstKSources(in.g, 0, in.numSources)
			auto, _ := BC(in.g, sources, Options{BatchSize: in.batch})
			if d := maxAbsDiff(brandes.Sequential(in.g, sources), auto); d > 1e-9 {
				t.Fatalf("default plan vs Brandes: max abs diff %g", d)
			}
			want, serial := BC(in.g, sources, Options{BatchSize: in.batch, Parallelism: 1})
			for _, par := range []int{0, 1, 2, 3, 16} {
				opts := Options{BatchSize: in.batch, Parallelism: par}
				for rep := 0; rep < repeats; rep++ {
					got, stats := BC(in.g, sources, opts)
					for v := range want {
						if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
							t.Fatalf("%+v run %d: BC(%d) = %v, serial loop %v (not bitwise equal)", opts, rep, v, got[v], want[v])
						}
					}
					if stats != serial {
						t.Fatalf("%+v run %d: stats %+v, serial loop %+v", opts, rep, stats, serial)
					}
				}
			}
		})
	}
}

// TestPlanShared pins the plan: an engine per core, never more engines
// than batches, cores or the label budget allow; an explicit value kept
// up to the batch count.
func TestPlanShared(t *testing.T) {
	const big = 1 << 16
	fills := int(sharedLabelBudget / (labelBytesPerPair * 64)) // n whose k = 64 engine is the whole budget
	for _, c := range []struct {
		name              string
		procs, batches, n int
		k, par            int
		want              int
	}{
		{"one cpu is the serial loop", 1, 8, big, 32, 0, 1},
		{"one batch is the serial loop", 8, 1, big, 32, 0, 1},
		{"batches fill the machine", 2, 8, big, 32, 0, 2},
		{"never more engines than batches", 8, 3, big, 32, 0, 3},
		{"no sources", 4, 0, big, 0, 0, 1},
		{"explicit parallelism is kept", 2, 8, big, 32, 4, 4},
		{"explicit parallelism is clamped to batches", 8, 2, big, 32, 16, 2},
		{"over the budget: one engine", 8, 8, fills / 3 * 2, 64, 0, 1},
		{"two engines fit the budget", 8, 8, fills / 5 * 2, 64, 0, 2},
		{"the budget does not bind an explicit parallelism", 8, 8, fills, 64, 4, 4},
	} {
		if got := planShared(c.procs, c.batches, c.n, c.k, c.par); got != c.want {
			t.Errorf("%s: planShared(%d cpus, %d batches, n=%d, k=%d, par=%d) = %d, want %d",
				c.name, c.procs, c.batches, c.n, c.k, c.par, got, c.want)
		}
	}
}

// TestNewEngineRefusesPairIndexOverflow: the backward schedule holds
// 4-byte pair indices v·k+s.
func TestNewEngineRefusesPairIndexOverflow(t *testing.T) {
	g := graph.NewBuilder(1 << 16).Build()
	if msg := panicMessage(func() { NewEngine(g, 1<<16) }); !strings.Contains(msg, "exceed 2^32") {
		t.Fatalf("NewEngine(n=2^16, k=2^16) panicked %q", msg)
	}
}
