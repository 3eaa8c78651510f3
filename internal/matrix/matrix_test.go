package matrix

import (
	"reflect"
	"sort"
	"testing"

	"mrbc/internal/gen"
	"mrbc/internal/graph"
)

// plusSemiring is ordinary (+, identity 0) with unit extension, so a
// product counts walks.
var plusSemiring = Semiring[int]{
	Identity: 0,
	Plus:     func(a, b int) int { return a + b },
	Extend:   func(a int) int { return a },
}

func TestProductCountsWalks(t *testing.T) {
	// Path 0->1->2: x = e0; Aᵀx puts mass on 1; (Aᵀ)²x on 2.
	g := graph.FromEdges(3, [][2]uint32{{0, 1}, {1, 2}})
	x := NewVec(3, plusSemiring)
	x[0] = 1
	y := Product(g, x, plusSemiring)
	if !reflect.DeepEqual([]int(y), []int{0, 1, 0}) {
		t.Fatalf("Aᵀx = %v", y)
	}
	z := Product(g, y, plusSemiring)
	if !reflect.DeepEqual([]int(z), []int{0, 0, 1}) {
		t.Fatalf("(Aᵀ)²x = %v", z)
	}
}

func TestPushProductMatchesFullProduct(t *testing.T) {
	g := gen.ErdosRenyi(50, 300, 9)
	x := NewVec(50, plusSemiring)
	active := []uint32{}
	for i := 0; i < 50; i += 3 {
		x[i] = i + 1
		active = append(active, uint32(i))
	}
	full := Product(g, x, plusSemiring)
	y := NewVec(50, plusSemiring)
	PushProduct(g, x, active, plusSemiring, y, nil)
	if !reflect.DeepEqual(full, y) {
		t.Fatal("push product with full active set differs from full product")
	}
}

func TestPushProductTouched(t *testing.T) {
	g := graph.FromEdges(4, [][2]uint32{{0, 1}, {0, 2}, {3, 2}})
	x := NewVec(4, plusSemiring)
	x[0] = 1
	y := NewVec(4, plusSemiring)
	touched := PushProduct(g, x, []uint32{0}, plusSemiring, y, nil)
	sort.Slice(touched, func(i, j int) bool { return touched[i] < touched[j] })
	if !reflect.DeepEqual(touched, []uint32{1, 2}) {
		t.Fatalf("touched = %v", touched)
	}
}

func TestDimensionMismatchPanics(t *testing.T) {
	g := gen.Path(3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	PushProduct(g, NewVec(2, plusSemiring), nil, plusSemiring, NewVec(3, plusSemiring), nil)
}

func BenchmarkProduct(b *testing.B) {
	g := gen.RMAT(12, 8, 1)
	x := NewVec(g.NumVertices(), plusSemiring)
	for i := range x {
		x[i] = 1
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Product(g, x, plusSemiring)
	}
}
