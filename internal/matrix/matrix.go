// Package matrix provides the sparse-matrix substrate for the
// Maximal-Frontier BC baseline (Solomonik et al., SC'17), which the
// paper evaluates against (§5: "MFBC is a sparse-matrix based BC
// algorithm implemented in Cyclops Tensor Framework"). CTF itself is a
// distributed tensor framework; per DESIGN.md §3 the substitution here
// is shared-memory products with user-defined semirings (monoids +
// extension maps) over the graph's own CSR — graph.Graph's out-edge
// rows are the rows of the adjacency matrix, its in-edge view the
// transpose — which is the part of CTF MFBC actually exercises: masked
// SpMV/SpMM-style frontier products over a (min, +, count) algebra.
package matrix

import (
	"fmt"

	"mrbc/internal/graph"
)

// Semiring defines the algebra of a frontier product over element type
// T: y[j] = ⊕_{i : A[i][j]} extend(x[i]). Identity is the ⊕-identity
// (the "zero"); Extend is multiplication by the implicit unit edge
// weight.
type Semiring[T any] struct {
	Identity T
	Plus     func(a, b T) T
	Extend   func(a T) T
}

// Vec is a length-n vector of semiring elements.
type Vec[T any] []T

// NewVec allocates a vector filled with the semiring identity.
func NewVec[T any](n int, sr Semiring[T]) Vec[T] {
	v := make(Vec[T], n)
	for i := range v {
		v[i] = sr.Identity
	}
	return v
}

// PushProduct computes y ⊕= Aᵀ·x restricted to the active rows of x:
// for every active row i and stored entry A[i][j], y[j] ⊕= extend(x[i]).
// It appends to touched every j updated at least once (with possible
// duplicates) and returns it; the caller may deduplicate. This is the
// masked SpMV the frontier loop of MFBC performs each iteration.
func PushProduct[T any](a *graph.Graph, x Vec[T], active []uint32, sr Semiring[T], y Vec[T], touched []uint32) []uint32 {
	if n := a.NumVertices(); len(x) != n || len(y) != n {
		panic(fmt.Sprintf("matrix: dimension mismatch: A is %d, |x|=%d, |y|=%d", n, len(x), len(y)))
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

// Product computes the full y = Aᵀ·x over the semiring.
func Product[T any](a *graph.Graph, x Vec[T], sr Semiring[T]) Vec[T] {
	y := NewVec(a.NumVertices(), sr)
	for i := range y {
		xi := sr.Extend(x[i])
		for _, j := range a.OutNeighbors(uint32(i)) {
			y[j] = sr.Plus(y[j], xi)
		}
	}
	return y
}
