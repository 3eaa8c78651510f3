package core

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"mrbc/internal/gen"
	"mrbc/internal/graph"
)

// scanDue is the scan scheduler, kept as the oracle of the bucket one:
// every vertex whose first unsent entry is due in round r, in vertex
// order, read from nextDue alone. It errs on a vertex whose due round
// has already passed, which no schedule may leave behind.
func scanDue(e *Engine, r int) ([]Flag, error) {
	var flags []Flag
	for v := range e.vs {
		due, src := e.nextDue(uint32(v))
		if due == r {
			flags = append(flags, Flag{V: uint32(v), Src: src})
		} else if due > 0 && due < r {
			return nil, fmt.Errorf("vertex %d missed its scheduled round %d (now %d)", v, due, r)
		}
	}
	return flags, nil
}

// oracleForward runs e's forward phase to quiescence the way
// forwardPhase does, checking the bucket scheduler against scanDue: for
// every round NextForwardRound skips the scan finds nothing due, and
// before every round ForwardFlags collects, the scan finds exactly the
// flags it returns. It returns the flags of every non-empty round
// (vertex order) and the number of rounds skipped, or the first
// disagreement.
func oracleForward(e *Engine, stats *RunStats) (trace map[int][]Flag, skipped int, err error) {
	trace = make(map[int][]Flag)
	for r := 0; ; {
		next := e.NextForwardRound(r)
		if next < 0 {
			// Nothing is scheduled: no vertex may have an unsent entry.
			for v := range e.vs {
				if due, _ := e.nextDue(uint32(v)); due >= 0 {
					return nil, 0, fmt.Errorf("round %d: nothing scheduled but vertex %d due in round %d", r, v, due)
				}
			}
			if e.PendingUnsent() {
				return nil, 0, fmt.Errorf("round %d: nothing scheduled but labels pending", r)
			}
			return trace, skipped, nil
		}
		for skip := r + 1; skip < next; skip++ {
			want, err := scanDue(e, skip)
			if err != nil {
				return nil, 0, fmt.Errorf("skipped round %d: %v", skip, err)
			}
			if len(want) > 0 {
				return nil, 0, fmt.Errorf("round %d skipped with %d flags due: %v", skip, len(want), want)
			}
			skipped++
		}
		r = next
		want, err := scanDue(e, r)
		if err != nil {
			return nil, 0, fmt.Errorf("round %d: %v", r, err)
		}
		flags := e.ForwardFlags(r, nil)
		got := append([]Flag(nil), flags...)
		sort.Slice(got, func(i, j int) bool { return got[i].V < got[j].V })
		if !slices.Equal(got, want) {
			return nil, 0, fmt.Errorf("round %d: bucket scheduler flags %v, scan %v", r, got, want)
		}
		if len(flags) == 0 {
			if !e.PendingUnsent() {
				return trace, skipped, nil
			}
			continue
		}
		trace[r] = got
		stats.ForwardRounds = r
		stats.LabelsSynced += int64(len(flags))
		for _, f := range flags {
			d := e.Get(f.V, int(f.Src))
			e.ApplySync(f.V, int(f.Src), d.Dist, d.Sigma, r)
		}
		for _, f := range flags {
			e.RelaxOutLocal(f.V, int(f.Src))
		}
	}
}

// oracleBC is BC's serial loop with every batch's forward phase run
// through oracleForward, failing t at the first disagreement.
func oracleBC(t *testing.T, g *graph.Graph, sources []uint32, k int) ([]float64, RunStats) {
	t.Helper()
	scores := make([]float64, g.NumVertices())
	var stats RunStats
	loop := &batchLoop{g: g, kmax: min(k, len(sources))}
	for start := 0; start < len(sources); start += k {
		batch := sources[start:min(start+k, len(sources))]
		e := loop.engine(len(batch))
		for i, s := range batch {
			e.InitSource(s, i, true)
		}
		var own RunStats
		if _, _, err := oracleForward(e, &own); err != nil {
			t.Fatalf("batch at %d: %v", start, err)
		}
		e.StartBackward(own.ForwardRounds)
		for r := 1; r <= e.BackwardRounds(); r++ {
			flags := e.BackwardFlags(r, nil)
			for _, f := range flags {
				e.AccumulateIn(f.V, int(f.Src))
			}
			own.LabelsSynced += int64(len(flags))
		}
		own.Batches, own.BackwardRounds = 1, e.BackwardRounds()
		stats.add(own)
		loop.fold(batch, scores)
	}
	return scores, stats
}

// graphFromSeed derives a small random graph and source batch from a
// single seed, cycling through generator families so the property is
// checked on varied topologies (sparse random, power-law, grid-like,
// long-diameter DAG).
func graphFromSeed(seed uint64) (*graph.Graph, []uint32) {
	var g *graph.Graph
	switch seed % 4 {
	case 0:
		g = gen.ErdosRenyi(40+int(seed%25), 160, int64(seed))
	case 1:
		g = gen.RMAT(5, 8, int64(seed))
	case 2:
		g = gen.RoadGrid(5, 5, int64(seed))
	default:
		g = gen.LadderDAG(6 + int(seed%10))
	}
	k := 8
	if n := g.NumVertices(); n < k {
		k = n
	}
	batch := make([]uint32, k)
	stride := uint32(g.NumVertices() / k)
	if stride == 0 {
		stride = 1
	}
	for i := range batch {
		batch[i] = uint32(i) * stride % uint32(g.NumVertices())
	}
	return g, batch
}

// TestSchedulersProduceIdenticalRoundTraces is the property from the
// paper's Lemma 6/7 machinery: the bucket scheduler is an indexing
// optimization, so every round it collects must hold exactly the flags
// a naive scan of the derived due rounds finds, every round it skips
// must hold none, and no vertex may ever be overdue — the whole
// (round → flag set) trace, not merely the final BC.
func TestSchedulersProduceIdenticalRoundTraces(t *testing.T) {
	prop := func(rawSeed uint32) bool {
		seed := uint64(rawSeed)
		g, batch := graphFromSeed(seed)
		e := NewEngine(g, len(batch))
		for i, s := range batch {
			e.InitSource(s, i, true)
		}
		var stats RunStats
		if _, _, err := oracleForward(e, &stats); err != nil {
			t.Logf("seed=%d: %v", seed, err)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 60}
	if testing.Short() {
		cfg.MaxCount = 15
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestWorkerCountInvariance checks batch-level parallelism against the
// serial loop across worker counts, bitwise, on random topologies:
// however the batch engines interleave, the ordered retire folds every
// batch in index order, so even the fractional dependency sums must be
// bit-for-bit identical for Parallelism 2, 4 and 8.
func TestWorkerCountInvariance(t *testing.T) {
	prop := func(rawSeed uint32) bool {
		seed := uint64(rawSeed)
		g, batch := graphFromSeed(seed)
		opts := Options{BatchSize: 2, Parallelism: 1}
		ref, refStats := BC(g, batch, opts)
		for _, w := range []int{2, 4, 8} {
			opts.Parallelism = w
			bc, stats := BC(g, batch, opts)
			for v := range ref {
				if math.Float64bits(bc[v]) != math.Float64bits(ref[v]) {
					t.Logf("seed=%d workers=%d: BC(%d) = %v vs %v (not bitwise equal)", seed, w, v, bc[v], ref[v])
					return false
				}
			}
			if stats != refStats {
				t.Logf("seed=%d workers=%d: stats %+v vs %+v", seed, w, stats, refStats)
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 30}
	if testing.Short() {
		cfg.MaxCount = 8
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}
