package partition

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mrbc/internal/gen"
	"mrbc/internal/graph"
)

// checkInvariants verifies the structural contract every partitioner
// must satisfy.
func checkInvariants(t *testing.T, g *graph.Graph, pt *Partitioning) {
	t.Helper()
	n := g.NumVertices()

	// Every vertex has exactly one master, on a valid host.
	masterCount := make([]int, n)
	for _, p := range pt.Parts {
		for l, isM := range p.IsMaster {
			if isM {
				masterCount[p.GlobalID[l]]++
				if pt.MasterOf[p.GlobalID[l]] != int32(p.Host) {
					t.Fatalf("MasterOf disagrees for vertex %d", p.GlobalID[l])
				}
			}
		}
	}
	for v, c := range masterCount {
		if c != 1 {
			t.Fatalf("vertex %d has %d masters", v, c)
		}
		// The master host holds a proxy of v, flagged as the master.
		m := pt.Parts[pt.MasterOf[v]]
		if l, ok := m.LocalID(uint32(v)); !ok || !m.IsMaster[l] {
			t.Fatalf("vertex %d: master host %d holds no master proxy", v, pt.MasterOf[v])
		}
	}

	// Every edge appears on exactly one host, and local graphs contain
	// no foreign edges.
	type edge struct{ u, v uint32 }
	seen := map[edge]int{}
	for _, p := range pt.Parts {
		p.Local.Edges(func(lu, lv uint32) {
			seen[edge{p.GlobalID[lu], p.GlobalID[lv]}]++
		})
	}
	total := 0
	g.Edges(func(u, v uint32) {
		total++
		if seen[edge{u, v}] != 1 {
			t.Fatalf("edge (%d,%d) on %d hosts", u, v, seen[edge{u, v}])
		}
	})
	if len(seen) != total {
		t.Fatalf("partitions contain %d distinct edges, graph has %d", len(seen), total)
	}

	// Local ID maps are consistent.
	for _, p := range pt.Parts {
		for l, gid := range p.GlobalID {
			if got, ok := p.LocalID(gid); !ok || got != uint32(l) {
				t.Fatalf("host %d: LocalID(%d) = (%d,%v)", p.Host, gid, got, ok)
			}
		}
		if _, ok := p.LocalID(uint32(n) + 100); ok {
			t.Fatal("LocalID accepted an unknown vertex")
		}
	}
}

func TestEdgeCutInvariants(t *testing.T) {
	g := gen.RMAT(8, 8, 1)
	for _, hosts := range []int{1, 2, 3, 4, 8} {
		checkInvariants(t, g, EdgeCut(g, hosts))
	}
}

func TestCartesianCutInvariants(t *testing.T) {
	g := gen.RMAT(8, 8, 2)
	for _, hosts := range []int{1, 2, 4, 6, 9} {
		checkInvariants(t, g, CartesianCut(g, hosts))
	}
}

func TestEdgeCutOwnsOutEdges(t *testing.T) {
	// In the 1D edge-cut, all out-edges of a vertex live on its master.
	g := gen.ErdosRenyi(100, 600, 4)
	pt := EdgeCut(g, 4)
	g.Edges(func(u, v uint32) {
		h := pt.MasterOf[u]
		p := pt.Parts[h]
		lu, ok1 := p.LocalID(u)
		lv, ok2 := p.LocalID(v)
		if !ok1 || !ok2 || !p.Local.HasEdge(lu, lv) {
			t.Fatalf("edge (%d,%d) not on master host %d of %d", u, v, h, u)
		}
	})
}

func TestGridShape(t *testing.T) {
	cases := map[int][2]int{1: {1, 1}, 2: {1, 2}, 4: {2, 2}, 6: {2, 3}, 8: {2, 4}, 9: {3, 3}, 16: {4, 4}, 7: {1, 7}}
	for hosts, want := range cases {
		r, c := gridShape(hosts)
		if r != want[0] || c != want[1] {
			t.Errorf("gridShape(%d) = (%d,%d), want %v", hosts, r, c, want)
		}
	}
}

func TestSingleHostIsWholeGraph(t *testing.T) {
	g := gen.RoadGrid(10, 10, 3)
	for _, pt := range []*Partitioning{EdgeCut(g, 1), CartesianCut(g, 1)} {
		p := pt.Parts[0]
		if p.Local.NumVertices() != g.NumVertices() || p.Local.NumEdges() != g.NumEdges() {
			t.Fatalf("single-host partition lost structure: n=%d m=%d", p.Local.NumVertices(), p.Local.NumEdges())
		}
		for _, m := range p.IsMaster {
			if !m {
				t.Fatal("single host must master every vertex")
			}
		}
	}
}

func TestInvalidInputsPanic(t *testing.T) {
	g := gen.Path(4)
	for name, fn := range map[string]func(){
		"zero-hosts":  func() { EdgeCut(g, 0) },
		"neg-hosts":   func() { CartesianCut(g, -1) },
		"empty-graph": func() { EdgeCut(graph.NewBuilder(0).Build(), 2) },
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

// Property: on random graphs and host counts, both policies preserve
// every edge exactly once and give every vertex one master.
func TestQuickPartitionInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(60)
		b := graph.NewBuilder(n)
		for i := 0; i < rng.Intn(5*n); i++ {
			b.AddEdge(uint32(rng.Intn(n)), uint32(rng.Intn(n)))
		}
		g := b.Build()
		hosts := 1 + rng.Intn(6)
		for _, pt := range []*Partitioning{EdgeCut(g, hosts), CartesianCut(g, hosts)} {
			type edge struct{ u, v uint32 }
			seen := map[edge]int{}
			masters := make([]int, n)
			for _, p := range pt.Parts {
				p.Local.Edges(func(lu, lv uint32) {
					seen[edge{p.GlobalID[lu], p.GlobalID[lv]}]++
				})
				for l, m := range p.IsMaster {
					if m {
						masters[p.GlobalID[l]]++
					}
				}
			}
			ok := true
			g.Edges(func(u, v uint32) {
				if seen[edge{u, v}] != 1 {
					ok = false
				}
			})
			if !ok || int64(len(seen)) != g.NumEdges() {
				return false
			}
			for _, c := range masters {
				if c != 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkCartesianCut(b *testing.B) {
	g := gen.RMAT(12, 8, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = CartesianCut(g, 8)
	}
}
