package mfbc

import (
	"fmt"

	"mrbc/internal/graph"
)

// The sparse-matrix substrate. CTF, on which the original MFBC runs, is
// a distributed tensor framework; per DESIGN.md §3 the substitution here
// is shared-memory products with user-defined semirings (monoids +
// extension maps) over the graph's own CSR — graph.Graph's out-edge rows
// are the rows of the adjacency matrix, its in-edge view the transpose —
// which is the part of CTF MFBC actually exercises: masked frontier
// products over a (min, +, count) algebra.

// semiring defines the algebra of a frontier product over element type
// T: y[j] = ⊕_{i : A[i][j]} extend(x[i]). Identity is the ⊕-identity
// (the "zero"); Extend is multiplication by the implicit unit edge
// weight.
type semiring[T any] struct {
	Identity T
	Plus     func(a, b T) T
	Extend   func(a T) T
}

// vec is a length-n vector of semiring elements.
type vec[T any] []T

// newVec allocates a vector filled with the semiring identity.
func newVec[T any](n int, sr semiring[T]) vec[T] {
	v := make(vec[T], n)
	for i := range v {
		v[i] = sr.Identity
	}
	return v
}

// pushProduct computes y ⊕= Aᵀ·x restricted to the active rows of x:
// for every active row i and stored entry A[i][j], y[j] ⊕= extend(x[i]).
// It appends to touched every j updated at least once (with possible
// duplicates) and returns it; the caller may deduplicate. This is the
// masked SpMV the frontier loop of MFBC performs each iteration.
func pushProduct[T any](a *graph.Graph, x vec[T], active []uint32, sr semiring[T], y vec[T], touched []uint32) []uint32 {
	if n := a.NumVertices(); len(x) != n || len(y) != n {
		panic(fmt.Sprintf("mfbc: dimension mismatch: A is %d, |x|=%d, |y|=%d", n, len(x), len(y)))
	}
	for _, i := range active {
		xi := sr.Extend(x[i])
		for _, j := range a.OutNeighbors(i) {
			y[j] = sr.Plus(y[j], xi)
			touched = append(touched, j)
		}
	}
	return touched
}
