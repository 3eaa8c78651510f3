package brandes

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"mrbc/internal/gen"
	"mrbc/internal/graph"
)

// naiveBC computes BC by explicit all-pairs shortest-path enumeration
// (Floyd-Warshall distances plus DP path counting). O(n^3); ground
// truth for small graphs, independent of Brandes' recurrence.
func naiveBC(g *graph.Graph, sources []uint32) []float64 {
	n := g.NumVertices()
	const inf = math.MaxInt32
	dist := make([][]int32, n)
	count := make([][]float64, n)
	for i := range dist {
		dist[i] = make([]int32, n)
		count[i] = make([]float64, n)
		for j := range dist[i] {
			dist[i][j] = inf
		}
		dist[i][i] = 0
		count[i][i] = 1
	}
	g.Edges(func(u, v uint32) {
		dist[u][v] = 1
		count[u][v] = 1
	})
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			if dist[i][k] == inf {
				continue
			}
			for j := 0; j < n; j++ {
				if dist[k][j] == inf || k == i || k == j {
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
			if int(s) == t || dist[s][t] == inf {
				continue
			}
			for v := 0; v < n; v++ {
				if v == int(s) || v == t {
					continue
				}
				if dist[s][v] != inf && dist[v][t] != inf &&
					dist[s][v]+dist[v][t] == dist[s][t] {
					scores[v] += count[s][v] * count[v][t] / count[s][t]
				}
			}
		}
	}
	return scores
}

func allSources(g *graph.Graph) []uint32 {
	out := make([]uint32, g.NumVertices())
	for i := range out {
		out[i] = uint32(i)
	}
	return out
}

// bitsEqual reports whether a and b hold the same float64 bits.
func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func approxEqual(a, b []float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > tol*(1+math.Abs(a[i])) {
			return false
		}
	}
	return true
}

func TestPathClosedForm(t *testing.T) {
	// Directed path 0->1->2->3->4: BC(v) for inner v at position i is
	// i*(n-1-i) pairs passing through it.
	g := gen.Path(5)
	scores := SequentialAll(g)
	want := []float64{0, 3, 4, 3, 0}
	if !approxEqual(scores, want, 1e-12) {
		t.Fatalf("path BC = %v, want %v", scores, want)
	}
}

func TestStarClosedForm(t *testing.T) {
	// Star with bidirectional spokes: all shortest paths between leaves
	// go through the hub. n-1 leaves -> (n-1)(n-2) ordered pairs.
	g := gen.Star(6)
	scores := SequentialAll(g)
	if scores[0] != 20 {
		t.Fatalf("hub BC = %v, want 20", scores[0])
	}
	for v := 1; v < 6; v++ {
		if scores[v] != 0 {
			t.Fatalf("leaf %d BC = %v, want 0", v, scores[v])
		}
	}
}

func TestCycleClosedForm(t *testing.T) {
	// Directed n-cycle: between any ordered pair there is exactly one
	// path, passing through every intermediate vertex. Each vertex lies
	// strictly inside paths for sum_{d=2}^{n-1} (d-1) = (n-1)(n-2)/2 pairs.
	n := 7
	g := gen.Cycle(n)
	scores := SequentialAll(g)
	want := float64((n - 1) * (n - 2) / 2)
	for v := 0; v < n; v++ {
		if scores[v] != want {
			t.Fatalf("cycle BC[%d] = %v, want %v", v, scores[v], want)
		}
	}
}

func TestDiamondSplitPaths(t *testing.T) {
	// 0->1->3, 0->2->3: vertices 1 and 2 each carry half of the single
	// (0,3) pair.
	g := graph.FromEdges(4, [][2]uint32{{0, 1}, {0, 2}, {1, 3}, {2, 3}})
	scores := SequentialAll(g)
	want := []float64{0, 0.5, 0.5, 0}
	if !approxEqual(scores, want, 1e-12) {
		t.Fatalf("diamond BC = %v, want %v", scores, want)
	}
}

func TestLadderExponentialPaths(t *testing.T) {
	g := gen.LadderDAG(8)
	seq := SequentialAll(g)
	naive := naiveBC(g, allSources(g))
	if !approxEqual(seq, naive, 1e-9) {
		t.Fatalf("ladder: sequential %v vs naive %v", seq, naive)
	}
}

func TestSequentialMatchesNaiveRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(14)
		b := graph.NewBuilder(n)
		m := rng.Intn(3 * n)
		for i := 0; i < m; i++ {
			b.AddEdge(uint32(rng.Intn(n)), uint32(rng.Intn(n)))
		}
		g := b.Build()
		got := SequentialAll(g)
		want := naiveBC(g, allSources(g))
		if !approxEqual(got, want, 1e-9) {
			t.Fatalf("trial %d (n=%d m=%d): got %v want %v", trial, n, g.NumEdges(), got, want)
		}
	}
}

func TestSubsetSourcesMatchNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	g := gen.ErdosRenyi(30, 120, 5)
	sources := []uint32{0, 3, 7, 11}
	_ = rng
	got := Sequential(g, sources)
	want := naiveBC(g, sources)
	if !approxEqual(got, want, 1e-9) {
		t.Fatalf("subset sources: got %v want %v", got, want)
	}
}

func TestDisconnectedGraph(t *testing.T) {
	// Two separate paths; scores must stay finite and correct.
	g := graph.FromEdges(6, [][2]uint32{{0, 1}, {1, 2}, {3, 4}, {4, 5}})
	got := SequentialAll(g)
	want := []float64{0, 1, 0, 0, 1, 0}
	if !approxEqual(got, want, 1e-12) {
		t.Fatalf("disconnected BC = %v, want %v", got, want)
	}
}

func TestSourceOutOfRangePanics(t *testing.T) {
	g := gen.Path(3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Sequential(g, []uint32{3})
}

func TestFirstKSources(t *testing.T) {
	g := gen.Path(10)
	s := FirstKSources(g, 2, 3)
	if len(s) != 3 || s[0] != 2 || s[2] != 4 {
		t.Fatalf("FirstKSources = %v", s)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range request")
		}
	}()
	FirstKSources(g, 8, 3)
}

func TestParallelMatchesSequential(t *testing.T) {
	g := gen.RMAT(9, 8, 17)
	sources := FirstKSources(g, 0, 64)
	seq := Sequential(g, sources)
	for _, workers := range []int{1, 2, 4, 8} {
		par := Parallel(g, sources, workers)
		if !bitsEqual(seq, par) {
			t.Fatalf("workers=%d: parallel differs from sequential in some bit", workers)
		}
	}
}

func TestParallelNoSources(t *testing.T) {
	g := gen.Path(5)
	scores := Parallel(g, nil, 4)
	for _, s := range scores {
		if s != 0 {
			t.Fatal("no sources should give zero scores")
		}
	}
}

func TestAsyncMatchesSequential(t *testing.T) {
	inputs := map[string]*graph.Graph{
		"rmat":  gen.RMAT(8, 8, 3),
		"grid":  gen.RoadGrid(16, 16, 3),
		"cycle": gen.Cycle(64),
		"er":    gen.ErdosRenyi(200, 800, 3),
	}
	for name, g := range inputs {
		sources := FirstKSources(g, 0, 16)
		seq := Sequential(g, sources)
		async := Async(g, sources, AsyncConfig{Workers: 4, ChunkSize: 8})
		if !approxEqual(seq, async, 1e-9) {
			t.Fatalf("%s: async differs from sequential", name)
		}
	}
}

func TestAsyncChunkSizes(t *testing.T) {
	g := gen.RoadGrid(20, 20, 9)
	sources := FirstKSources(g, 0, 8)
	seq := Sequential(g, sources)
	for _, chunk := range []int{1, 8, 64} {
		got := Async(g, sources, AsyncConfig{Workers: 4, ChunkSize: chunk})
		if !approxEqual(seq, got, 1e-9) {
			t.Fatalf("chunk=%d: async differs", chunk)
		}
	}
}

// Property: on random graphs, Brandes BC from a random source subset
// is non-negative and zero on vertices with no in- or out-edges.
func TestQuickBCBasicProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		b := graph.NewBuilder(n)
		for i := 0; i < rng.Intn(4*n); i++ {
			b.AddEdge(uint32(rng.Intn(n)), uint32(rng.Intn(n)))
		}
		g := b.Build()
		scores := SequentialAll(g)
		for v := 0; v < n; v++ {
			if scores[v] < -1e-12 {
				return false
			}
			if (g.OutDegree(uint32(v)) == 0 || g.InDegree(uint32(v)) == 0) && scores[v] != 0 {
				return false // endpoint-only vertices lie inside no path
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: the total BC over all vertices equals the total count of
// "interior vertex slots" Σ_{s≠t} (d(s,t)-1) over reachable pairs,
// since each (s,t) pair distributes exactly d(s,t)-1 units.
func TestQuickBCMassConservation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
		b := graph.NewBuilder(n)
		for i := 0; i < rng.Intn(3*n); i++ {
			b.AddEdge(uint32(rng.Intn(n)), uint32(rng.Intn(n)))
		}
		g := b.Build()
		scores := SequentialAll(g)
		var total float64
		for _, s := range scores {
			total += s
		}
		var want float64
		for s := 0; s < n; s++ {
			for t, d := range g.BFS(uint32(s)) {
				if t != s && d != graph.InfDist {
					want += float64(d) - 1
				}
			}
		}
		return math.Abs(total-want) < 1e-6*(1+want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSequentialRMAT(b *testing.B) {
	g := gen.RMAT(12, 8, 1)
	sources := FirstKSources(g, 0, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Sequential(g, sources)
	}
}

func BenchmarkParallelRMAT(b *testing.B) {
	g := gen.RMAT(12, 8, 1)
	sources := FirstKSources(g, 0, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Parallel(g, sources, 8)
	}
}

func BenchmarkAsyncGrid(b *testing.B) {
	g := gen.RoadGrid(64, 64, 1)
	sources := FirstKSources(g, 0, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Async(g, sources, AsyncConfig{Workers: 8, ChunkSize: 64})
	}
}
