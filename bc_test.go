package mrbc

import (
	"math"
	"testing"
)

func pathGraph(n int) *Graph {
	b := NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		b.AddEdge(uint32(i), uint32(i+1))
	}
	return b.Build()
}

func approx(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-9*(1+math.Abs(a[i])) {
			return false
		}
	}
	return true
}

func TestAllEnginesAgree(t *testing.T) {
	g := GenerateRMAT(8, 8, 42)
	sources := Sources(g, 0, 24)
	ref, err := Betweenness(g, sources, Options{Algorithm: Brandes})
	if err != nil {
		t.Fatal(err)
	}
	cases := []Options{
		{Algorithm: MRBC},
		{Algorithm: MRBC, Hosts: 4, BatchSize: 8},
		{Algorithm: MRBC, Hosts: 4, Partition: EdgeCut},
		{Algorithm: SBBC, Hosts: 4},
		{Algorithm: SBBC},
		{Algorithm: ABBC, Workers: 4},
		{Algorithm: MFBC, BatchSize: 16},
		{Algorithm: Congest},
		{Algorithm: Brandes, Workers: 4},
	}
	for _, opts := range cases {
		res, err := Betweenness(g, sources, opts)
		if err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		if !approx(res.Scores, ref.Scores) {
			t.Fatalf("%+v: scores differ from Brandes", opts)
		}
	}
}

func TestExactBCOnPath(t *testing.T) {
	g := pathGraph(5)
	res, err := Betweenness(g, AllSources(g), Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 3, 4, 3, 0}
	if !approx(res.Scores, want) {
		t.Fatalf("path BC = %v, want %v", res.Scores, want)
	}
}

func TestDistributedRunReportsMetrics(t *testing.T) {
	g := GenerateRMAT(8, 8, 7)
	sources := Sources(g, 0, 16)
	res, err := Betweenness(g, sources, Options{Algorithm: MRBC, Hosts: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds == 0 || res.Bytes == 0 || res.Messages == 0 {
		t.Fatalf("missing metrics: %+v", res)
	}
	if res.Duration <= 0 {
		t.Fatal("missing duration")
	}
}

func TestShortestPaths(t *testing.T) {
	g := pathGraph(4)
	dist, sigma, err := ShortestPaths(g, []uint32{0})
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 4; v++ {
		if dist[0][v] != uint32(v) {
			t.Fatalf("dist[0][%d] = %d", v, dist[0][v])
		}
		if sigma[0][v] != 1 {
			t.Fatalf("sigma[0][%d] = %v", v, sigma[0][v])
		}
	}
}

func TestErrors(t *testing.T) {
	g := pathGraph(3)
	if _, err := Betweenness(g, []uint32{5}, Options{}); err == nil {
		t.Fatal("expected out-of-range error")
	}
	if _, err := Betweenness(g, nil, Options{Algorithm: "nope"}); err == nil {
		t.Fatal("expected unknown-algorithm error")
	}
	if _, err := Betweenness(g, nil, Options{Algorithm: MRBC, Hosts: 2, Partition: "bad"}); err == nil {
		t.Fatal("expected unknown-partition error")
	}
	if _, _, err := ShortestPaths(g, []uint32{9}); err == nil {
		t.Fatal("expected out-of-range error")
	}
}

// TestPartitionPolicyNames: the root API's policy names are the ones
// partition.ByName takes and Partitioning.Policy reports, and an unset
// policy is the Cartesian cut.
func TestPartitionPolicyNames(t *testing.T) {
	g := pathGraph(8)
	for policy, want := range map[PartitionPolicy]PartitionPolicy{
		EdgeCut: EdgeCut, CartesianCut: CartesianCut, "": CartesianCut,
	} {
		pt, err := makePartitionN(g, Options{Partition: policy}, 4)
		if err != nil {
			t.Fatal(err)
		}
		if PartitionPolicy(pt.Policy) != want {
			t.Fatalf("policy %q: partition reports %q, want %q", policy, pt.Policy, want)
		}
	}
}

func TestTopK(t *testing.T) {
	ranked := TopK([]float64{1, 5, 5, 0}, 3)
	if len(ranked) != 3 {
		t.Fatalf("len = %d", len(ranked))
	}
	if ranked[0].Vertex != 1 || ranked[1].Vertex != 2 || ranked[2].Vertex != 0 {
		t.Fatalf("order = %v", ranked)
	}
	if got := TopK([]float64{1}, -1); len(got) != 0 {
		t.Fatal("TopK with negative k should return nothing")
	}
	if got := TopK([]float64{1}, 5); len(got) != 1 {
		t.Fatal("TopK should clamp k")
	}
}

func TestSourcesHelpers(t *testing.T) {
	g := pathGraph(6)
	if s := Sources(g, 2, 3); len(s) != 3 || s[0] != 2 {
		t.Fatalf("Sources = %v", s)
	}
	if s := AllSources(g); len(s) != 6 || s[5] != 5 {
		t.Fatalf("AllSources = %v", s)
	}
}

func TestGeneratorsExported(t *testing.T) {
	if g := GenerateKronecker(6, 8, 1); g.NumVertices() != 64 {
		t.Fatal("kronecker")
	}
	if g := GenerateRoadGrid(5, 5, 1); g.NumVertices() != 25 {
		t.Fatal("roadgrid")
	}
	if g := GenerateWebCrawl(6, 6, 2, 10, 1); g.NumVertices() != 64+20 {
		t.Fatal("webcrawl")
	}
}

func TestUndirectedBC(t *testing.T) {
	// Directed path 0->1->2 undirected: vertex 1 lies between both
	// ordered pairs (0,2) and (2,0).
	g := Undirected(pathGraph(3))
	res, err := Betweenness(g, AllSources(g), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(res.Scores, []float64{0, 2, 0}) {
		t.Fatalf("undirected path BC = %v", res.Scores)
	}
}

func TestAutotuneBatchSizeExported(t *testing.T) {
	g := GenerateRMAT(7, 8, 3)
	k := AutotuneBatchSize(g, Sources(g, 0, 16), []int{4, 8})
	if k != 4 && k != 8 {
		t.Fatalf("autotune returned %d", k)
	}
}

func TestMaxAbsDifference(t *testing.T) {
	if d := MaxAbsDifference([]float64{1, 2, 3}, []float64{1, 4, 2.5}); d != 2 {
		t.Fatalf("diff = %v", d)
	}
	if d := MaxAbsDifference(nil, []float64{5}); d != 0 {
		t.Fatalf("diff over empty overlap = %v", d)
	}
}
