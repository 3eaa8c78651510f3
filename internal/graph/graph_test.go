package graph

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// diamond is the 4-vertex DAG 0->1, 0->2, 1->3, 2->3 used throughout.
func diamond() *Graph {
	return FromEdges(4, [][2]uint32{{0, 1}, {0, 2}, {1, 3}, {2, 3}})
}

func TestEmptyGraph(t *testing.T) {
	g := NewBuilder(0).Build()
	if g.NumVertices() != 0 || g.NumEdges() != 0 {
		t.Fatalf("empty graph: n=%d m=%d", g.NumVertices(), g.NumEdges())
	}
	if !g.IsWeaklyConnected() || !g.IsStronglyConnected() {
		t.Fatal("empty graph should be trivially connected")
	}
}

func TestSingleVertex(t *testing.T) {
	g := NewBuilder(1).Build()
	if g.NumVertices() != 1 || g.NumEdges() != 0 {
		t.Fatal("bad single-vertex graph")
	}
	d := g.BFS(0)
	if d[0] != 0 {
		t.Fatalf("BFS self distance %d", d[0])
	}
}

func TestBuilderDedupAndSelfLoops(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(0, 1) // dup
	b.AddEdge(1, 1) // self loop
	b.AddEdge(2, 0)
	g := b.Build()
	if g.NumEdges() != 2 {
		t.Fatalf("edges = %d, want 2 (dedup + self-loop removal)", g.NumEdges())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(2, 0) || g.HasEdge(1, 1) {
		t.Fatal("wrong edge set after Build")
	}
}

func TestBuilderOutOfRangePanics(t *testing.T) {
	b := NewBuilder(2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	b.AddEdge(0, 2)
}

func TestOutInNeighbors(t *testing.T) {
	g := diamond()
	if got := g.OutNeighbors(0); !reflect.DeepEqual(got, []uint32{1, 2}) {
		t.Fatalf("OutNeighbors(0) = %v", got)
	}
	if got := g.InNeighbors(3); !reflect.DeepEqual(got, []uint32{1, 2}) {
		t.Fatalf("InNeighbors(3) = %v", got)
	}
	if g.OutDegree(0) != 2 || g.InDegree(0) != 0 {
		t.Fatal("wrong degrees at 0")
	}
	if g.OutDegree(3) != 0 || g.InDegree(3) != 2 {
		t.Fatal("wrong degrees at 3")
	}
}

func TestMaxDegrees(t *testing.T) {
	g := FromEdges(5, [][2]uint32{{0, 1}, {0, 2}, {0, 3}, {1, 4}, {2, 4}, {3, 4}})
	if d, v := g.MaxOutDegree(); d != 3 || v != 0 {
		t.Fatalf("MaxOutDegree = (%d,%d)", d, v)
	}
	if d, v := g.MaxInDegree(); d != 3 || v != 4 {
		t.Fatalf("MaxInDegree = (%d,%d)", d, v)
	}
}

func TestTranspose(t *testing.T) {
	g := diamond()
	tr := g.Transpose()
	if tr.NumEdges() != g.NumEdges() {
		t.Fatalf("transpose edge count %d", tr.NumEdges())
	}
	g.Edges(func(u, v uint32) {
		if !tr.HasEdge(v, u) {
			t.Fatalf("edge (%d,%d) missing reversed", v, u)
		}
	})
	// Double transpose is the identity.
	tt := tr.Transpose()
	var orig, back [][2]uint32
	g.Edges(func(u, v uint32) { orig = append(orig, [2]uint32{u, v}) })
	tt.Edges(func(u, v uint32) { back = append(back, [2]uint32{u, v}) })
	if !reflect.DeepEqual(orig, back) {
		t.Fatal("double transpose is not identity")
	}
}

func TestBFSPath(t *testing.T) {
	// 0 -> 1 -> 2 -> 3, plus unreachable 4.
	g := FromEdges(5, [][2]uint32{{0, 1}, {1, 2}, {2, 3}})
	d := g.BFS(0)
	want := []uint32{0, 1, 2, 3, InfDist}
	if !reflect.DeepEqual(d, want) {
		t.Fatalf("BFS = %v, want %v", d, want)
	}
	ecc, reached := g.Eccentricity(0)
	if ecc != 3 || reached != 4 {
		t.Fatalf("Eccentricity = (%d,%d)", ecc, reached)
	}
	if d := diamond().BFS(0); !reflect.DeepEqual(d, []uint32{0, 1, 1, 2}) {
		t.Fatalf("diamond BFS = %v", d)
	}
}

func TestEstimateDiameter(t *testing.T) {
	g := FromEdges(4, [][2]uint32{{0, 1}, {1, 2}, {2, 3}, {3, 0}})
	if d := g.EstimateDiameter([]uint32{0, 1}); d != 3 {
		t.Fatalf("EstimateDiameter = %d, want 3", d)
	}
}

func TestConnectivity(t *testing.T) {
	cycle := FromEdges(3, [][2]uint32{{0, 1}, {1, 2}, {2, 0}})
	if !cycle.IsStronglyConnected() || !cycle.IsWeaklyConnected() {
		t.Fatal("cycle should be strongly connected")
	}
	path := FromEdges(3, [][2]uint32{{0, 1}, {1, 2}})
	if path.IsStronglyConnected() {
		t.Fatal("path is not strongly connected")
	}
	if !path.IsWeaklyConnected() {
		t.Fatal("path is weakly connected")
	}
	disc := FromEdges(4, [][2]uint32{{0, 1}, {2, 3}})
	if disc.IsWeaklyConnected() {
		t.Fatal("disconnected graph reported weakly connected")
	}
	// Two 2-cycles joined by a one-way edge: weakly but not strongly
	// connected.
	joined := FromEdges(4, [][2]uint32{{0, 1}, {1, 0}, {1, 2}, {2, 3}, {3, 2}})
	if joined.IsStronglyConnected() || !joined.IsWeaklyConnected() {
		t.Fatal("joined 2-cycles: want weakly but not strongly connected")
	}
	long := NewBuilder(50)
	for i := 0; i < 50; i++ {
		long.AddEdge(uint32(i), uint32((i+1)%50))
	}
	if !long.Build().IsStronglyConnected() {
		t.Fatal("50-cycle should be strongly connected")
	}
}

func TestUndirected(t *testing.T) {
	g := FromEdges(3, [][2]uint32{{0, 1}, {1, 2}})
	u := g.Undirected()
	if u.NumEdges() != 4 {
		t.Fatalf("undirected m = %d, want 4", u.NumEdges())
	}
	if !u.HasEdge(1, 0) || !u.HasEdge(2, 1) {
		t.Fatal("missing reverse edges")
	}
	if !u.IsStronglyConnected() {
		t.Fatal("undirected path should be strongly connected")
	}
}

func randomGraph(rng *rand.Rand, n, m int) *Graph {
	b := NewBuilder(n)
	for i := 0; i < m; i++ {
		b.AddEdge(uint32(rng.Intn(n)), uint32(rng.Intn(n)))
	}
	return b.Build()
}

// Property: CSR offsets partition the edge array and neighbor lists are
// sorted and in range.
func TestQuickCSRInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(60)
		g := randomGraph(rng, n, rng.Intn(4*n))
		var total int64
		for v := 0; v < n; v++ {
			nb := g.OutNeighbors(uint32(v))
			total += int64(len(nb))
			for i, w := range nb {
				if int(w) >= n {
					return false
				}
				if i > 0 && nb[i-1] >= w {
					return false // must be strictly increasing (dedup)
				}
			}
		}
		return total == g.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: in-degree sums equal out-degree sums equal m, and the CSC
// view agrees with the CSR view edge-for-edge.
func TestQuickInOutConsistency(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(50)
		g := randomGraph(rng, n, rng.Intn(5*n))
		var inSum, outSum int64
		for v := 0; v < n; v++ {
			inSum += int64(g.InDegree(uint32(v)))
			outSum += int64(g.OutDegree(uint32(v)))
		}
		if inSum != g.NumEdges() || outSum != g.NumEdges() {
			return false
		}
		ok := true
		g.Edges(func(u, v uint32) {
			found := false
			for _, w := range g.InNeighbors(v) {
				if w == u {
					found = true
					break
				}
			}
			if !found {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: BFS distances satisfy the triangle property over edges:
// d(v) <= d(u)+1 for every edge (u,v) with d(u) finite, and every
// finite-distance vertex other than the source has an in-neighbor one
// level up.
func TestQuickBFSCorrectness(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(50)
		g := randomGraph(rng, n, rng.Intn(4*n))
		src := uint32(rng.Intn(n))
		d := g.BFS(src)
		if d[src] != 0 {
			return false
		}
		ok := true
		g.Edges(func(u, v uint32) {
			if d[u] != InfDist && d[v] > d[u]+1 {
				ok = false
			}
		})
		if !ok {
			return false
		}
		for v := 0; v < n; v++ {
			if uint32(v) == src || d[v] == InfDist {
				continue
			}
			has := false
			for _, u := range g.InNeighbors(uint32(v)) {
				if d[u] != InfDist && d[u]+1 == d[v] {
					has = true
					break
				}
			}
			if !has {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkBFS(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	g := randomGraph(rng, 10000, 80000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.BFS(uint32(i % 10000))
	}
}

func BenchmarkBuild(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	edges := make([][2]uint32, 100000)
	for i := range edges {
		edges[i] = [2]uint32{uint32(rng.Intn(10000)), uint32(rng.Intn(10000))}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = FromEdges(10000, edges)
	}
}
