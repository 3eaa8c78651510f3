package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"mrbc/internal/gen"
	"mrbc/internal/graph"
)

// tauSchedule is the backward schedule as the engine once built it from
// a stored τ, kept as the oracle of the sync log: every reached pair
// (v, s) is due in backward round R − τsv + 1, bucketed by a counting
// pass and a fill pass over the slab in ascending pair index, so each
// round's flags ascend by (vertex, source). tau holds the forward round
// that synchronized each pair (0: never), as driveBatch records it.
func tauSchedule(dist []uint32, tau []int32, k, R int) [][]Flag {
	var counts []int32
	for i, d := range dist {
		if d == graph.InfDist {
			continue
		}
		r := R - int(tau[i]) + 1
		for len(counts) < r {
			counts = append(counts, 0)
		}
		counts[r-1]++
	}
	rounds := make([][]Flag, len(counts))
	for r, c := range counts {
		rounds[r] = make([]Flag, 0, c)
	}
	for i, d := range dist {
		if d != graph.InfDist {
			r := R - int(tau[i]) + 1
			rounds[r-1] = append(rounds[r-1], Flag{V: uint32(i / k), Src: int32(i % k)})
		}
	}
	return rounds
}

// checkBackwardSchedule compares a finished batch's backward rounds, as
// driveBatch recorded them, with tauSchedule over the τ it recorded.
func checkBackwardSchedule(e *Engine, tr batchTrace) error {
	want := tauSchedule(e.dist, tr.Tau, e.k, tr.R)
	if len(tr.Back) != len(want) {
		return fmt.Errorf("%d backward rounds, τ scan %d", len(tr.Back), len(want))
	}
	for r := range want {
		if !slices.Equal(tr.Back[r], want[r]) {
			return fmt.Errorf("backward round %d: flags %v, τ scan %v", r+1, tr.Back[r], want[r])
		}
	}
	if extra := e.BackwardFlags(len(want)+1, nil); len(extra) > 0 {
		return fmt.Errorf("backward round %d past the schedule holds %v", len(want)+1, extra)
	}
	return nil
}

// withIsolated returns g with extra vertices that have no edge: a source
// there reaches nothing but itself.
func withIsolated(g *graph.Graph, extra int) *graph.Graph {
	b := graph.NewBuilder(g.NumVertices() + extra)
	for v := 0; v < g.NumVertices(); v++ {
		for _, w := range g.OutNeighbors(uint32(v)) {
			b.AddEdge(uint32(v), w)
		}
	}
	return b.Build()
}

// TestBackwardScheduleMatchesTauScan pins the sync log against the τ
// scan it replaced: on random R-MAT and road graphs with isolated
// sources, at k = 1, 3, 32, 64 and 130 over a source count k does not
// divide, one engine runs batch after batch — now and then one
// abandoned mid-forward and Reset — and every backward round of every
// finished batch must hold exactly the τ scan's flags in its order.
func TestBackwardScheduleMatchesTauScan(t *testing.T) {
	for _, k := range []int{1, 3, 32, 64, 130} {
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			var g *graph.Graph
			if rng.Intn(2) == 0 {
				g = gen.RMAT(8, 4+rng.Intn(5), seed)
			} else {
				g = gen.RoadGrid(10+rng.Intn(6), 10+rng.Intn(6), seed)
			}
			const isolated = 4
			g = withIsolated(g, isolated)
			n := g.NumVertices()
			count := min(n, k+1+rng.Intn(2*k))
			if k > 1 && count%k == 0 {
				count--
			}
			sources := randomBatch(rng, n, count)
			sources[0] = uint32(n - 1 - rng.Intn(isolated)) // the first batch reaches nothing from it
			e := NewEngine(g, min(k, count))
			for off := 0; off < count; off += k {
				batch := sources[off:min(off+k, count)]
				if rng.Intn(3) == 0 {
					abandoned := randomBatch(rng, n, 1+rng.Intn(e.kmax))
					e.Reset(len(abandoned))
					driveBatch(e, abandoned, 1+rng.Intn(4), -1)
				}
				e.Reset(len(batch))
				tr := driveBatch(e, batch, -1, -1)
				if err := checkBackwardSchedule(e, tr); err != nil {
					t.Logf("k=%d seed %d batch at %d: %v", k, seed, off, err)
					return false
				}
			}
			return true
		}
		count := 30
		if testing.Short() || k > 64 {
			count = 8
		}
		if err := quick.Check(f, &quick.Config{MaxCount: count}); err != nil {
			t.Fatal(err)
		}
	}
}
