package mrbcdist

import (
	"math"
	"math/rand"
	"testing"

	"mrbc/internal/brandes"
	"mrbc/internal/graph"
	"mrbc/internal/partition"
)

// TestBruteForceAgainstBrandes sweeps thousands of tiny random
// configurations and checks exact agreement with the sequential oracle.
// This is the regression net for the cross-host scheduling subtleties
// (the §4.3 distance-tie gap) DESIGN.md §5 describes.
func TestBruteForceAgainstBrandes(t *testing.T) {
	if testing.Short() {
		t.Skip("long brute-force sweep")
	}
	for seed := int64(0); seed < 700; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(12)
		b := graph.NewBuilder(n)
		for i := 0; i < rng.Intn(3*n); i++ {
			b.AddEdge(uint32(rng.Intn(n)), uint32(rng.Intn(n)))
		}
		g := b.Build()
		hosts := 2 + rng.Intn(2)
		k := 1 + rng.Intn(3)
		numSrc := 1 + rng.Intn(n)
		sources := make([]uint32, numSrc)
		for i, s := range rng.Perm(n)[:numSrc] {
			sources[i] = uint32(s)
		}
		want := brandes.Sequential(g, sources)
		for _, pt := range []*partition.Partitioning{
			partition.EdgeCut(g, hosts), partition.CartesianCut(g, hosts),
		} {
			got, _ := Run(g, pt, sources, Options{BatchSize: k})
			for v := range got {
				if math.Abs(got[v]-want[v]) > 1e-9 {
					t.Fatalf("seed=%d n=%d hosts=%d k=%d policy=%s: BC[%d]=%v want %v",
						seed, n, hosts, k, pt.Policy, v, got[v], want[v])
				}
			}
		}
	}
}
