package brandes

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"mrbc/internal/gen"
	"mrbc/internal/graph"
)

// naiveWeightedBC is an O(n^3) Floyd-Warshall oracle for weighted BC.
func naiveWeightedBC(g *graph.Weighted, sources []uint32) []float64 {
	n := g.NumVertices()
	const inf = math.MaxInt64 / 4
	dist := make([][]int64, n)
	count := make([][]float64, n)
	for i := range dist {
		dist[i] = make([]int64, n)
		count[i] = make([]float64, n)
		for j := range dist[i] {
			dist[i][j] = inf
		}
		dist[i][i] = 0
		count[i][i] = 1
	}
	for u := 0; u < n; u++ {
		dsts, ws := g.OutEdges(uint32(u))
		for i, v := range dsts {
			w := int64(ws[i])
			if w < dist[u][v] {
				dist[u][v] = w
				count[u][v] = 1
			}
		}
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			if dist[i][k] >= inf {
				continue
			}
			for j := 0; j < n; j++ {
				if dist[k][j] >= inf || k == i || k == j {
					continue
				}
				nd := dist[i][k] + dist[k][j]
				if nd < dist[i][j] {
					dist[i][j] = nd
					count[i][j] = count[i][k] * count[k][j]
				} else if nd == dist[i][j] {
					count[i][j] += count[i][k] * count[k][j]
				}
			}
		}
	}
	scores := make([]float64, n)
	for _, s := range sources {
		for t := 0; t < n; t++ {
			if int(s) == t || dist[s][t] >= inf {
				continue
			}
			for v := 0; v < n; v++ {
				if v == int(s) || v == t || dist[s][v] >= inf || dist[v][t] >= inf {
					continue
				}
				if dist[s][v]+dist[v][t] == dist[s][t] {
					scores[v] += count[s][v] * count[v][t] / count[s][t]
				}
			}
		}
	}
	return scores
}

func randomWeighted(rng *rand.Rand, n, m, maxW int) *graph.Weighted {
	edges := make([]graph.WeightedEdge, 0, m)
	for i := 0; i < m; i++ {
		edges = append(edges, graph.WeightedEdge{
			U:      uint32(rng.Intn(n)),
			V:      uint32(rng.Intn(n)),
			Weight: uint32(1 + rng.Intn(maxW)),
		})
	}
	return graph.FromWeightedEdges(n, edges)
}

func weightedAllSources(g *graph.Weighted) []uint32 {
	out := make([]uint32, g.NumVertices())
	for i := range out {
		out[i] = uint32(i)
	}
	return out
}

func TestWeightedPathClosedForm(t *testing.T) {
	// 0 -2-> 1 -3-> 2 -1-> 3: vertex 1 and 2 are on every longer path.
	g := graph.FromWeightedEdges(4, []graph.WeightedEdge{
		{U: 0, V: 1, Weight: 2}, {U: 1, V: 2, Weight: 3}, {U: 2, V: 3, Weight: 1},
	})
	scores := WeightedSequential(g, weightedAllSources(g))
	want := []float64{0, 2, 2, 0}
	if !approxEqual(scores, want, 1e-12) {
		t.Fatalf("weighted path BC = %v, want %v", scores, want)
	}
}

func TestWeightedShortcutChangesPaths(t *testing.T) {
	// Diamond where the top route is shorter: 0-1-3 costs 2, 0-2-3
	// costs 4 -> only vertex 1 is between.
	g := graph.FromWeightedEdges(4, []graph.WeightedEdge{
		{U: 0, V: 1, Weight: 1}, {U: 1, V: 3, Weight: 1},
		{U: 0, V: 2, Weight: 2}, {U: 2, V: 3, Weight: 2},
	})
	scores := WeightedSequential(g, weightedAllSources(g))
	want := []float64{0, 1, 0, 0}
	if !approxEqual(scores, want, 1e-12) {
		t.Fatalf("weighted diamond BC = %v, want %v", scores, want)
	}
}

func TestWeightedMatchesNaiveRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 15; trial++ {
		n := 2 + rng.Intn(12)
		g := randomWeighted(rng, n, rng.Intn(3*n), 4)
		got := WeightedSequential(g, weightedAllSources(g))
		want := naiveWeightedBC(g, weightedAllSources(g))
		if !approxEqual(got, want, 1e-9) {
			t.Fatalf("trial %d: got %v want %v", trial, got, want)
		}
	}
}

func TestWeightedUnitEqualsUnweighted(t *testing.T) {
	ug := gen.RMAT(7, 8, 9)
	sources := FirstKSources(ug, 0, 16)
	want := Sequential(ug, sources)
	got := WeightedSequential(graph.UnitWeights(ug), sources)
	if !approxEqual(got, want, 1e-9) {
		t.Fatal("unit-weight BC differs from unweighted BC")
	}
}

func TestWeightedParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := randomWeighted(rng, 100, 500, 5)
	sources := weightedAllSources(g)[:24]
	want := WeightedSequential(g, sources)
	for _, workers := range []int{2, 4, 8} {
		got := WeightedParallel(g, sources, workers)
		if !bitsEqual(got, want) {
			t.Fatalf("workers=%d: differs from sequential in some bit", workers)
		}
	}
}

func TestWeightedAsyncMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randomWeighted(rng, 150, 900, 6)
	sources := weightedAllSources(g)[:16]
	want := WeightedSequential(g, sources)
	got := WeightedAsync(g, sources, AsyncConfig{Workers: 4, ChunkSize: 8})
	if !approxEqual(got, want, 1e-9) {
		t.Fatal("weighted async differs from sequential")
	}
}

func TestWeightedGraphValidation(t *testing.T) {
	for name, fn := range map[string]func(){
		"zero-weight": func() {
			graph.FromWeightedEdges(2, []graph.WeightedEdge{{U: 0, V: 1, Weight: 0}})
		},
		"out-of-range": func() {
			graph.FromWeightedEdges(2, []graph.WeightedEdge{{U: 0, V: 5, Weight: 1}})
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestWeightedParallelEdgesKeepMin(t *testing.T) {
	g := graph.FromWeightedEdges(2, []graph.WeightedEdge{
		{U: 0, V: 1, Weight: 5}, {U: 0, V: 1, Weight: 2}, {U: 0, V: 1, Weight: 9},
	})
	if g.NumEdges() != 1 {
		t.Fatalf("edges = %d, want 1", g.NumEdges())
	}
	if d := g.Dijkstra(0); d[1] != 2 {
		t.Fatalf("dist = %d, want 2 (min parallel weight)", d[1])
	}
}

func TestDijkstraAgainstBFSOnUnitWeights(t *testing.T) {
	ug := gen.ErdosRenyi(80, 400, 3)
	g := graph.UnitWeights(ug)
	for _, s := range []uint32{0, 5, 79} {
		bfs := ug.BFS(s)
		dj := g.Dijkstra(s)
		for v := range bfs {
			if bfs[v] == graph.InfDist {
				if dj[v] != graph.InfWeightedDist {
					t.Fatalf("src %d: vertex %d reachable only for Dijkstra", s, v)
				}
				continue
			}
			if dj[v] != uint64(bfs[v]) {
				t.Fatalf("src %d: dist[%d] = %d vs BFS %d", s, v, dj[v], bfs[v])
			}
		}
	}
}

// Property: weighted BC matches the Floyd-Warshall oracle on random
// weighted digraphs with random source subsets.
func TestQuickWeightedAgainstNaive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(14)
		g := randomWeighted(rng, n, rng.Intn(3*n), 5)
		k := 1 + rng.Intn(n)
		sources := make([]uint32, k)
		for i, s := range rng.Perm(n)[:k] {
			sources[i] = uint32(s)
		}
		got := WeightedSequential(g, sources)
		want := naiveWeightedBC(g, sources)
		return approxEqual(got, want, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkWeightedSequential(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := randomWeighted(rng, 2000, 16000, 10)
	sources := weightedAllSources(g)[:8]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = WeightedSequential(g, sources)
	}
}
