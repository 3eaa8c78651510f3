package mfbc

import (
	"reflect"
	"sort"
	"testing"

	"mrbc/internal/gen"
	"mrbc/internal/graph"
)

// plusSemiring is ordinary (+, identity 0) with unit extension, so a
// product counts walks.
var plusSemiring = semiring[int]{
	Identity: 0,
	Plus:     func(a, b int) int { return a + b },
	Extend:   func(a int) int { return a },
}

// product computes the full y = Aᵀ·x over the semiring: the oracle the
// masked pushProduct is checked against.
func product[T any](a *graph.Graph, x vec[T], sr semiring[T]) vec[T] {
	y := newVec(a.NumVertices(), sr)
	for i := range y {
		xi := sr.Extend(x[i])
		for _, j := range a.OutNeighbors(uint32(i)) {
			y[j] = sr.Plus(y[j], xi)
		}
	}
	return y
}

func TestProductCountsWalks(t *testing.T) {
	// Path 0->1->2: x = e0; Aᵀx puts mass on 1; (Aᵀ)²x on 2.
	g := graph.FromEdges(3, [][2]uint32{{0, 1}, {1, 2}})
	x := newVec(3, plusSemiring)
	x[0] = 1
	y := product(g, x, plusSemiring)
	if !reflect.DeepEqual([]int(y), []int{0, 1, 0}) {
		t.Fatalf("Aᵀx = %v", y)
	}
	z := product(g, y, plusSemiring)
	if !reflect.DeepEqual([]int(z), []int{0, 0, 1}) {
		t.Fatalf("(Aᵀ)²x = %v", z)
	}
}

func TestPushProductMatchesFullProduct(t *testing.T) {
	g := gen.ErdosRenyi(50, 300, 9)
	x := newVec(50, plusSemiring)
	active := []uint32{}
	for i := 0; i < 50; i += 3 {
		x[i] = i + 1
		active = append(active, uint32(i))
	}
	full := product(g, x, plusSemiring)
	y := newVec(50, plusSemiring)
	pushProduct(g, x, active, plusSemiring, y, nil)
	if !reflect.DeepEqual(full, y) {
		t.Fatal("push product with full active set differs from full product")
	}
}

func TestPushProductTouched(t *testing.T) {
	g := graph.FromEdges(4, [][2]uint32{{0, 1}, {0, 2}, {3, 2}})
	x := newVec(4, plusSemiring)
	x[0] = 1
	y := newVec(4, plusSemiring)
	touched := pushProduct(g, x, []uint32{0}, plusSemiring, y, nil)
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
	pushProduct(g, newVec(2, plusSemiring), nil, plusSemiring, newVec(3, plusSemiring), nil)
}
