package gen

import (
	"reflect"
	"sort"
	"testing"

	"mrbc/internal/graph"
)

func TestRMATBasics(t *testing.T) {
	g := RMAT(10, 8, 1)
	if g.NumVertices() != 1024 {
		t.Fatalf("n = %d", g.NumVertices())
	}
	if g.NumEdges() == 0 || g.NumEdges() > 8*1024 {
		t.Fatalf("m = %d out of range", g.NumEdges())
	}
	// Power-law-ish: the max degree should far exceed the average.
	maxDeg, _ := g.MaxOutDegree()
	avg := float64(g.NumEdges()) / 1024
	if float64(maxDeg) < 4*avg {
		t.Fatalf("max degree %d not skewed vs avg %.1f", maxDeg, avg)
	}
}

func TestRMATDeterminism(t *testing.T) {
	a := RMAT(8, 8, 42)
	b := RMAT(8, 8, 42)
	if a.NumEdges() != b.NumEdges() {
		t.Fatal("same seed produced different graphs")
	}
	diff := false
	a.Edges(func(u, v uint32) {
		if !b.HasEdge(u, v) {
			diff = true
		}
	})
	if diff {
		t.Fatal("same seed produced different edge sets")
	}
	c := RMAT(8, 8, 43)
	if c.NumEdges() == a.NumEdges() {
		same := true
		a.Edges(func(u, v uint32) {
			if !c.HasEdge(u, v) {
				same = false
			}
		})
		if same {
			t.Fatal("different seeds produced identical graphs")
		}
	}
}

func TestRMATBadScalePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	RMAT(-1, 8, 1)
}

func TestKronecker(t *testing.T) {
	g := Kronecker(9, 12, 7)
	if g.NumVertices() != 512 || g.NumEdges() == 0 {
		t.Fatalf("kron n=%d m=%d", g.NumVertices(), g.NumEdges())
	}
}

func TestRoadGrid(t *testing.T) {
	g := RoadGrid(20, 30, 5)
	if g.NumVertices() != 600 {
		t.Fatalf("n = %d", g.NumVertices())
	}
	if !g.IsStronglyConnected() {
		t.Fatal("grid with bidirectional streets must be strongly connected")
	}
	// Diameter should be on the order of rows+cols.
	ecc, _ := g.Eccentricity(0)
	if ecc < 10 {
		t.Fatalf("grid eccentricity %d too small", ecc)
	}
	maxDeg, _ := g.MaxOutDegree()
	if maxDeg > 20 {
		t.Fatalf("grid max degree %d should be bounded", maxDeg)
	}
}

func TestWebCrawlLongTails(t *testing.T) {
	core := RMAT(9, 8, 11)
	g := WebCrawl(9, 8, 4, 50, 11)
	if g.NumVertices() != core.NumVertices()+200 {
		t.Fatalf("n = %d", g.NumVertices())
	}
	// The estimated diameter must reflect the tails: sampling sources
	// across the graph should see distances >= tailLen.
	samples := []uint32{0, 1, 2, uint32(g.NumVertices() - 1)}
	d := g.EstimateDiameter(samples)
	if d < 50 {
		t.Fatalf("estimated diameter %d does not show the long tail", d)
	}
}

func TestErdosRenyi(t *testing.T) {
	g := ErdosRenyi(100, 500, 3)
	if g.NumVertices() != 100 {
		t.Fatalf("n = %d", g.NumVertices())
	}
	if g.NumEdges() == 0 || g.NumEdges() > 500 {
		t.Fatalf("m = %d", g.NumEdges())
	}
}

func TestFixedShapes(t *testing.T) {
	if g := Cycle(10); !g.IsStronglyConnected() || g.NumEdges() != 10 {
		t.Fatal("bad cycle")
	}
	if g := Path(10); g.NumEdges() != 9 || g.IsStronglyConnected() {
		t.Fatal("bad path")
	}
	star := Star(10)
	if d, v := star.MaxOutDegree(); d != 9 || v != 0 {
		t.Fatal("bad star")
	}
	if !star.IsStronglyConnected() {
		t.Fatal("star with back edges should be strongly connected")
	}
	if g := Complete(6); g.NumEdges() != 30 {
		t.Fatalf("complete m = %d", g.NumEdges())
	}
}

func TestLadderDAGPathCounts(t *testing.T) {
	g := LadderDAG(5) // 10 vertices, 2^3 = 8 shortest paths from vertex 0 to vertex 8
	if g.NumVertices() != 10 {
		t.Fatalf("n = %d", g.NumVertices())
	}
	// Count paths 0 -> 8 by DP over the DAG levels.
	count := make([]int, 10)
	count[0] = 1
	order := []uint32{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	for _, u := range order {
		for _, v := range g.OutNeighbors(u) {
			count[v] += count[u]
		}
	}
	if count[8] != 8 {
		t.Fatalf("paths to vertex 8 = %d, want 8", count[8])
	}
}

func TestSmallWorld(t *testing.T) {
	g := SmallWorld(100, 2, 0.1, 13)
	if g.NumVertices() != 100 {
		t.Fatalf("n = %d", g.NumVertices())
	}
	if !g.IsStronglyConnected() {
		t.Fatal("small world with bidirectional edges should stay strongly connected")
	}
}

func TestSmallWorldBadParamsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	SmallWorld(4, 2, 0.1, 1)
}

func TestGridBadParamsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	RoadGrid(0, 5, 1)
}

var sink *graph.Graph

func BenchmarkRMAT(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sink = RMAT(12, 8, int64(i))
	}
}

func BenchmarkRoadGrid(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sink = RoadGrid(64, 64, int64(i))
	}
}

func TestShuffleIDsIsAnIsomorphicRelabeling(t *testing.T) {
	g := RoadGrid(20, 20, 104)
	s := ShuffleIDs(g, 105)
	if s.NumVertices() != g.NumVertices() || s.NumEdges() != g.NumEdges() {
		t.Fatalf("size changed: %d/%d -> %d/%d",
			g.NumVertices(), g.NumEdges(), s.NumVertices(), s.NumEdges())
	}
	degrees := func(g *graph.Graph) []int {
		ds := make([]int, g.NumVertices())
		for v := 0; v < g.NumVertices(); v++ {
			ds[v] = g.OutDegree(uint32(v))
		}
		sort.Ints(ds)
		return ds
	}
	if !reflect.DeepEqual(degrees(g), degrees(s)) {
		t.Fatal("relabeling changed the degree multiset")
	}
	if !reflect.DeepEqual(ShuffleIDs(g, 105), s) {
		t.Fatal("not deterministic for a fixed seed")
	}
	if reflect.DeepEqual(ShuffleIDs(g, 106), s) {
		t.Fatal("different seeds produced the identical relabeling")
	}
}

// TestByName: each name builds exactly its generator's graph, and a
// request the generator would panic on is an error instead.
func TestByName(t *testing.T) {
	p := Params{Scale: 6, EdgeFactor: 4, Rows: 5, Cols: 7, Tails: 3, TailLen: 9, Seed: 2}
	for name, want := range map[string]*graph.Graph{
		"rmat":     RMAT(6, 4, 2),
		"kron":     Kronecker(6, 4, 2),
		"road":     RoadGrid(5, 7, 2),
		"webcrawl": WebCrawl(6, 4, 3, 9, 2),
	} {
		g, err := ByName(name, p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(g, want) {
			t.Fatalf("%s: ByName built another graph than its generator", name)
		}
	}
	for _, c := range []struct {
		name string
		p    Params
	}{
		{"", p},
		{"bogus", p},
		{"rmat", Params{Scale: 31}},
		{"kron", Params{Scale: -1}},
		{"webcrawl", Params{Scale: 4, EdgeFactor: -1}},
		{"webcrawl", Params{Scale: 4, Tails: -1, TailLen: 3}},
		{"webcrawl", Params{Scale: 4, Tails: 1 << 20, TailLen: 1 << 12}},
		{"road", Params{Rows: 0, Cols: 4}},
		{"road", Params{Rows: 4, Cols: -4}},
		{"road", Params{Rows: 1 << 16, Cols: 1 << 16}},
	} {
		if g, err := ByName(c.name, c.p); err == nil || g != nil {
			t.Errorf("ByName(%q, %+v) = %v, %v; want an error", c.name, c.p, g, err)
		}
	}
}
