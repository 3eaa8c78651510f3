package partition

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
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

// BenchmarkCartesianCut times the 4-host Cartesian cut of the graphs
// the benchmark's rmat_mem_h4 and road_mem_h4 workloads partition.
func BenchmarkCartesianCut(b *testing.B) {
	for _, c := range []struct {
		name string
		g    *graph.Graph
	}{
		{"rmat13x14", gen.RMAT(13, 14, 1)},
		{"road128x128", gen.RoadGrid(128, 128, 1)},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = CartesianCut(c.g, 4)
			}
		})
	}
}

// TestAssembleMatchesMapOracle pins the linear-time assembly to the
// map-and-sort one it replaced, kept below as oracleCut: on random
// graphs with isolated vertices, at 1–9 hosts (some owning no edge)
// under both policies, every Part must agree field by field, LocalID
// on every global vertex included, and MasterLocal must hold each
// vertex's local ID on its master.
func TestAssembleMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	var isolated, idle int
	for iter := 0; iter < 200; iter++ {
		n := 1 + rng.Intn(80)
		// Edges only among the first `live` vertices leave the rest isolated.
		live := 1 + rng.Intn(n)
		b := graph.NewBuilder(n)
		for i := rng.Intn(4 * live); i > 0; i-- {
			b.AddEdge(uint32(rng.Intn(live)), uint32(rng.Intn(live)))
		}
		g := b.Build()
		hosts := 1 + iter%9
		for _, policy := range []string{edgeCutName, cartesianName} {
			got, err := ByName(g, policy, hosts)
			if err != nil {
				t.Fatal(err)
			}
			want := oracleCut(g, hosts, policy)
			if !slices.Equal(got.MasterOf, want.masterOf) || got.Policy != policy || got.NumHosts != hosts {
				t.Fatalf("%s n=%d hosts=%d: MasterOf %v, want %v", policy, n, hosts, got.MasterOf, want.masterOf)
			}
			for v, m := range want.masterOf {
				if wl := want.parts[m].localID[uint32(v)]; got.MasterLocal[v] != wl {
					t.Fatalf("%s n=%d hosts=%d: MasterLocal[%d] = %d, want %d", policy, n, hosts, v, got.MasterLocal[v], wl)
				}
			}
			for h, p := range got.Parts {
				w := want.parts[h]
				where := func() string { return fmt.Sprintf("%s n=%d m=%d hosts=%d host %d", policy, n, g.NumEdges(), hosts, h) }
				if p.Host != h || !slices.Equal(p.GlobalID, w.globalID) || !slices.Equal(p.IsMaster, w.isMaster) {
					t.Fatalf("%s: GlobalID %v IsMaster %v, want %v %v", where(), p.GlobalID, p.IsMaster, w.globalID, w.isMaster)
				}
				if msg := sameCSR(p.Local, w.local); msg != "" {
					t.Fatalf("%s: %s", where(), msg)
				}
				for v := uint32(0); v <= uint32(n)+1; v++ {
					l, ok := p.LocalID(v)
					wl, wok := w.localID[v]
					if ok != wok || ok && l != wl {
						t.Fatalf("%s: LocalID(%d) = (%d,%v), want (%d,%v)", where(), v, l, ok, wl, wok)
					}
				}
				if p.Local.NumEdges() == 0 {
					idle++
				}
			}
		}
		if live < n {
			isolated++
		}
	}
	if isolated == 0 || idle == 0 {
		t.Fatalf("the cases drew %d graphs with isolated vertices and %d edgeless hosts; want both", isolated, idle)
	}
}

// TestAssembleMemoryBelowOracle pins the memory bound: at host counts
// from 1 to 256, cutting a power-law graph, a road grid or a graph of
// isolated vertices both allocates fewer bytes in total and keeps fewer
// live than the map-based oracle. The assembly sizes every array
// exactly and frees only its scratch at the end, so its total is its
// peak.
func TestAssembleMemoryBelowOracle(t *testing.T) {
	allocated := func(fn func()) (total, live int64) {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		total = int64(after.TotalAlloc - before.TotalAlloc)
		runtime.GC()
		runtime.ReadMemStats(&after)
		return total, int64(after.HeapAlloc) - int64(before.HeapAlloc)
	}
	for _, c := range []struct {
		name string
		g    *graph.Graph
	}{
		{"rmat", gen.RMAT(11, 8, 1)},
		{"road", gen.RoadGrid(48, 48, 1)},
		{"isolated", graph.NewBuilder(4096).Build()},
	} {
		for _, hosts := range []int{1, 2, 3, 4, 16, 64, 256} {
			for _, policy := range []string{edgeCutName, cartesianName} {
				var pt *Partitioning
				var want oraclePartitioning
				total, live := allocated(func() { pt, _ = ByName(c.g, policy, hosts) })
				oracleTotal, oracleLive := allocated(func() { want = oracleCut(c.g, hosts, policy) })
				if total >= oracleTotal || live >= oracleLive {
					t.Errorf("%s %s hosts=%d: the cut allocated %d bytes and keeps %d, the oracle %d and %d",
						c.name, policy, hosts, total, live, oracleTotal, oracleLive)
				}
				runtime.KeepAlive(pt)
				runtime.KeepAlive(want)
			}
		}
	}
}

// sameCSR compares two graphs' out- and in-CSR row by row and returns
// the first difference, or "".
func sameCSR(a, b *graph.Graph) string {
	if a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() {
		return fmt.Sprintf("n=%d m=%d, want n=%d m=%d", a.NumVertices(), a.NumEdges(), b.NumVertices(), b.NumEdges())
	}
	for v := uint32(0); int(v) < a.NumVertices(); v++ {
		if !slices.Equal(a.OutNeighbors(v), b.OutNeighbors(v)) {
			return fmt.Sprintf("out-row %d = %v, want %v", v, a.OutNeighbors(v), b.OutNeighbors(v))
		}
		if !slices.Equal(a.InNeighbors(v), b.InNeighbors(v)) {
			return fmt.Sprintf("in-row %d = %v, want %v", v, a.InNeighbors(v), b.InNeighbors(v))
		}
	}
	return ""
}

type oraclePart struct {
	local    *graph.Graph
	globalID []uint32
	isMaster []bool
	localID  map[uint32]uint32
}

type oraclePartitioning struct {
	masterOf []int32
	parts    []oraclePart
}

// oracleCut is the partitioner as it stood before the linear-time
// assembly: degree-balanced block bounds searched per vertex, per-host
// edge lists, map proxy sets sorted per host, a map local ID and a
// graph.Builder per part.
func oracleCut(g *graph.Graph, hosts int, policy string) oraclePartitioning {
	n := g.NumVertices()
	total := g.NumEdges() + int64(n)
	bounds := make([]uint32, hosts)
	target := total / int64(hosts)
	var acc int64
	b := 0
	for v := 0; v < n && b < hosts-1; v++ {
		acc += int64(g.OutDegree(uint32(v))) + 1
		if acc >= target*int64(b+1) {
			bounds[b] = uint32(v + 1)
			b++
		}
	}
	for ; b < hosts; b++ {
		bounds[b] = uint32(n)
	}
	masterOf := make([]int32, n)
	for v := range masterOf {
		lo, hi := 0, len(bounds)-1
		for lo < hi {
			mid := (lo + hi) / 2
			if uint32(v) < bounds[mid] {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		masterOf[v] = int32(lo)
	}
	hostOf := func(u, v uint32) int { return int(masterOf[u]) }
	if policy == cartesianName {
		_, cols := gridShape(hosts)
		hostOf = func(u, v uint32) int { return int(masterOf[u])/cols*cols + int(masterOf[v])%cols }
	}

	edgeLists := make([][][2]uint32, hosts)
	g.Edges(func(u, v uint32) {
		h := hostOf(u, v)
		edgeLists[h] = append(edgeLists[h], [2]uint32{u, v})
	})
	proxySets := make([]map[uint32]bool, hosts)
	for h := range proxySets {
		proxySets[h] = make(map[uint32]bool)
		for _, e := range edgeLists[h] {
			proxySets[h][e[0]] = true
			proxySets[h][e[1]] = true
		}
	}
	for v := 0; v < n; v++ {
		proxySets[masterOf[v]][uint32(v)] = true
	}
	out := oraclePartitioning{masterOf: masterOf}
	for h := 0; h < hosts; h++ {
		ids := make([]uint32, 0, len(proxySets[h]))
		for v := range proxySets[h] {
			ids = append(ids, v)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		localID := make(map[uint32]uint32, len(ids))
		for l, v := range ids {
			localID[v] = uint32(l)
		}
		b := graph.NewBuilder(len(ids))
		for _, e := range edgeLists[h] {
			b.AddEdge(localID[e[0]], localID[e[1]])
		}
		isMaster := make([]bool, len(ids))
		for l, v := range ids {
			isMaster[l] = masterOf[v] == int32(h)
		}
		out.parts = append(out.parts, oraclePart{local: b.Build(), globalID: ids, isMaster: isMaster, localID: localID})
	}
	return out
}
