package mfbc

import (
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mrbc/internal/brandes"
	"mrbc/internal/core"
	"mrbc/internal/gen"
	"mrbc/internal/graph"
)

var update = flag.Bool("update", false, "rewrite testdata/digest.golden from a fresh run")

const digestGolden = "testdata/digest.golden"

// digestWorkers are the worker counts every cell runs at; all must hash
// alike, and alike the golden.
var digestWorkers = []int{1, 2, 4}

// digestCell is one (graph, algorithm) cell of the shared-memory
// bit-identity grid: run hashes the scores (and stats, where the
// algorithm reports any) of a run at the given worker count.
type digestCell struct {
	name string
	run  func(workers int) string
}

// withWeights gives every edge of g a small pseudorandom weight, so the
// weighted sweeps see many equal-distance ties.
func withWeights(g *graph.Graph, seed int64) *graph.Weighted {
	rng := rand.New(rand.NewSource(seed))
	var edges []graph.WeightedEdge
	g.Edges(func(u, v uint32) {
		edges = append(edges, graph.WeightedEdge{U: u, V: v, Weight: uint32(1 + rng.Intn(3))})
	})
	return graph.FromWeightedEdges(g.NumVertices(), edges)
}

func digestCells() []digestCell {
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"road", gen.RoadGrid(12, 12, 7)},
		{"rmat", gen.RMAT(8, 8, 5)},
		{"web", gen.WebCrawl(6, 6, 3, 10, 8)},
		// Directed and sparse: most vertices are unreachable from any
		// one source.
		{"sparse", gen.ErdosRenyi(200, 260, 9)},
	}
	var out []digestCell
	for gi, gr := range graphs {
		g := gr.g
		wg := withWeights(g, int64(gi+1))
		sources := brandes.FirstKSources(g, 0, 24)
		cell := func(alg string, run func(workers int) string) {
			out = append(out, digestCell{name: gr.name + "/" + alg, run: run})
		}
		cell("sequential", func(int) string { return hashScores(brandes.Sequential(g, sources)) })
		cell("parallel", func(w int) string { return hashScores(brandes.Parallel(g, sources, w)) })
		cell("weighted-sequential", func(int) string {
			return hashScores(brandes.WeightedSequential(wg, sources))
		})
		cell("weighted-parallel", func(w int) string {
			return hashScores(brandes.WeightedParallel(wg, sources, w))
		})
		cell("weighted-async", func(w int) string {
			return hashScores(brandes.WeightedAsync(wg, sources, brandes.AsyncConfig{Workers: w}))
		})
		cell("approx", func(w int) string {
			scores, used := brandes.ApproximateBC(g, brandes.ApproxOptions{Samples: 24, Seed: 3, Workers: w})
			return hashScores(scores, uint64(used))
		})
		cell("approx-adaptive", func(w int) string {
			scores, used := brandes.ApproximateBC(g, brandes.ApproxOptions{
				Samples: 64, Seed: 3, Workers: w, Adaptive: true, Tolerance: 0.05})
			return hashScores(scores, uint64(used))
		})
		cell("mfbc", func(w int) string {
			scores, st := BC(g, sources, Options{BatchSize: 10, Workers: w})
			return hashScores(scores, uint64(st.Batches), uint64(st.ForwardIterations), uint64(st.BackwardIterations))
		})
		cell("mfbc-weighted", func(w int) string {
			return hashScores(WeightedBC(wg, sources, WeightedOptions{Workers: w}))
		})
		cell("mrbc", func(w int) string {
			scores, st := core.BC(g, sources, core.Options{BatchSize: 10, Parallelism: w})
			return hashScores(scores, uint64(st.Batches), uint64(st.ForwardRounds),
				uint64(st.BackwardRounds), uint64(st.LabelsSynced))
		})
	}
	return out
}

// hashScores is the FNV-1a digest of the score bits followed by extra.
func hashScores(scores []float64, extra ...uint64) string {
	h := fnv.New64a()
	put := func(x uint64) {
		var b [8]byte
		for i := range b {
			b[i] = byte(x >> (8 * i))
		}
		h.Write(b[:])
	}
	for _, s := range scores {
		put(math.Float64bits(s))
	}
	for _, x := range extra {
		put(x)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestDigestGrid pins the shared-memory baselines — Brandes, weighted
// Brandes, weighted ABBC, approximate BC, MFBC, weighted MFBC and
// shared-memory MRBC — bit for bit on four graphs against a golden
// recorded at one worker, and requires every worker count to hash the
// same: each vertex gets one addition per source, in source order,
// however many workers computed the sources. -update rewrites the
// golden from one-worker runs.
func TestDigestGrid(t *testing.T) {
	cells := digestCells()
	if *update {
		var b strings.Builder
		for _, c := range cells {
			fmt.Fprintf(&b, "%s %s\n", c.name, c.run(1))
		}
		if err := os.MkdirAll(filepath.Dir(digestGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digestGolden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(digestGolden)
	if err != nil {
		t.Fatalf("%v (record it with -update)", err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if name, sum, ok := strings.Cut(line, " "); ok {
			want[name] = sum
		}
	}
	if len(want) != len(cells) {
		t.Fatalf("golden holds %d cells, the grid has %d", len(want), len(cells))
	}
	for _, c := range cells {
		for _, w := range digestWorkers {
			if got := c.run(w); got != want[c.name] {
				t.Errorf("%s, workers=%d: digest %s, golden %s", c.name, w, got, want[c.name])
			}
		}
	}
}
