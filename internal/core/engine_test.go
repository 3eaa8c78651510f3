package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"mrbc/internal/brandes"
	"mrbc/internal/gen"
	"mrbc/internal/graph"
)

func TestEngineBCMatchesBrandesOnSuite(t *testing.T) {
	for name, g := range testGraphs() {
		n := g.NumVertices()
		sources := make([]uint32, n)
		for i := range sources {
			sources[i] = uint32(i)
		}
		want := brandes.SequentialAll(g)
		for _, k := range []int{1, 3, 7, n} {
			got, _ := BC(g, sources, Options{BatchSize: k})
			if !approxEqual(got, want, 1e-9) {
				t.Fatalf("%s k=%d: BC mismatch\n got %v\nwant %v", name, k, got, want)
			}
		}
	}
}

func TestEngineSubsetSources(t *testing.T) {
	g := gen.RMAT(8, 8, 4)
	sources := brandes.FirstKSources(g, 16, 48)
	want := brandes.Sequential(g, sources)
	got, stats := BC(g, sources, Options{BatchSize: 16})
	if !approxEqual(got, want, 1e-9) {
		t.Fatal("subset-source BC mismatch")
	}
	if stats.Batches != 3 {
		t.Fatalf("batches = %d, want 3", stats.Batches)
	}
}

func TestEngineRoundCountMatchesLemma8(t *testing.T) {
	// Per batch: forward <= k + H rounds; backward <= forward.
	g := gen.WebCrawl(7, 6, 2, 20, 3)
	k := 16
	sources := brandes.FirstKSources(g, 0, k)
	_, stats := BC(g, sources, Options{BatchSize: k})
	h := MaxFiniteDistance(g, sources)
	if stats.ForwardRounds > k+int(h) {
		t.Fatalf("forward rounds %d exceed k+H = %d", stats.ForwardRounds, k+int(h))
	}
	if stats.BackwardRounds > stats.ForwardRounds+1 {
		t.Fatalf("backward rounds %d exceed forward %d", stats.BackwardRounds, stats.ForwardRounds)
	}
}

func TestEngineBatchSizeReducesRounds(t *testing.T) {
	// Figure 1's premise: larger k amortizes the per-batch H cost, so
	// total rounds fall as k rises on a non-trivial-diameter graph.
	g := gen.WebCrawl(7, 6, 3, 30, 9)
	sources := brandes.FirstKSources(g, 0, 32)
	_, small := BC(g, sources, Options{BatchSize: 4})
	_, large := BC(g, sources, Options{BatchSize: 32})
	if large.Rounds() >= small.Rounds() {
		t.Fatalf("rounds with k=32 (%d) should be below k=4 (%d)", large.Rounds(), small.Rounds())
	}
}

func TestAPSPBatchMatchesBFS(t *testing.T) {
	g := gen.ErdosRenyi(60, 240, 8)
	batch := []uint32{0, 5, 59, 17}
	dist, sigma, _ := APSPBatch(g, batch)
	for i, s := range batch {
		ref := brandes.SingleSource(g, s)
		for v := 0; v < g.NumVertices(); v++ {
			if dist[i][v] != ref.Dist[v] {
				t.Fatalf("source %d: dist[%d] = %d, want %d", s, v, dist[i][v], ref.Dist[v])
			}
			if ref.Dist[v] != graph.InfDist && math.Abs(sigma[i][v]-ref.Sigma[v]) > 1e-9 {
				t.Fatalf("source %d: sigma[%d] = %v, want %v", s, v, sigma[i][v], ref.Sigma[v])
			}
		}
	}
}

func TestAPSPBatchEmpty(t *testing.T) {
	g := gen.Path(4)
	dist, sigma, stats := APSPBatch(g, nil)
	if dist != nil || sigma != nil || stats.Batches != 0 {
		t.Fatal("empty batch should be a no-op")
	}
}

func TestEngineLabelsSyncedOncePerReachablePair(t *testing.T) {
	// Forward phase synchronizes each (vertex, source) pair exactly
	// once; backward the same. So LabelsSynced == 2 * #reachable pairs.
	g := gen.ErdosRenyi(40, 150, 12)
	sources := brandes.FirstKSources(g, 0, 10)
	_, stats := BC(g, sources, Options{BatchSize: 10})
	var reachable int64
	for _, s := range sources {
		for _, d := range g.BFS(s) {
			if d != graph.InfDist {
				reachable++
			}
		}
	}
	if stats.LabelsSynced != 2*reachable {
		t.Fatalf("LabelsSynced = %d, want %d", stats.LabelsSynced, 2*reachable)
	}
}

func TestEngineSourceOutOfRangePanics(t *testing.T) {
	g := gen.Path(3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	BC(g, []uint32{5}, Options{})
}

func TestEngineNoSources(t *testing.T) {
	g := gen.Path(5)
	scores, stats := BC(g, nil, Options{})
	for _, s := range scores {
		if s != 0 {
			t.Fatal("expected zero scores with no sources")
		}
	}
	if stats.Batches != 0 {
		t.Fatal("expected zero batches")
	}
}

func TestEngineZeroBatchSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewEngine(gen.Path(3), 0)
}

// isSent reports whether (v, s) has been synchronized: it is reached
// and its unsent bit is clear.
func (e *Engine) isSent(v uint32, s int) bool {
	return e.dist[int(v)*e.k+s] != graph.InfDist && !e.isUnsent(v, s)
}

// TestFirstUnsentMatchesScan pins advanceFU's resumed scan against
// brute force: after every InitSource, MergePartial, ApplySync and
// RelaxOutLocal, on every host of a simulated vertex-cut run, each
// vertex's (fuDist, fuSrc) is the lexicographic minimum over its pairs
// with a finite distance and no sent bit, and its unsent row holds
// exactly those pairs. Mirrors lose arbitrations and masters merge
// partials as in internal/mrbcdist, so entries are lowered and
// synchronized out of local order; the masters' final labels must
// still be Brandes'.
func TestFirstUnsentMatchesScan(t *testing.T) {
	var resumed, rescanned int
	for _, k := range []int{1, 5, 63, 64, 65, 130} {
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			n, hosts := 2+rng.Intn(19), 1+rng.Intn(3)
			whole := graph.NewBuilder(n)
			parts := make([]*graph.Builder, hosts)
			for h := range parts {
				parts[h] = graph.NewBuilder(n)
			}
			placed := make(map[[2]uint32]bool) // each edge on exactly one host
			for i := rng.Intn(4 * n); i > 0; i-- {
				e := [2]uint32{uint32(rng.Intn(n)), uint32(rng.Intn(n))}
				if !placed[e] {
					placed[e] = true
					whole.AddEdge(e[0], e[1])
					parts[rng.Intn(hosts)].AddEdge(e[0], e[1])
				}
			}
			engines := make([]*Engine, hosts)
			for h := range engines {
				engines[h] = NewEngine(parts[h].Build(), k)
			}
			master := func(v uint32) int { return int(v) % hosts }

			failed := ""
			check := func(h int, op string) {
				e := engines[h]
				for v := range e.vs {
					bestD, bestS := graph.InfDist, int32(-1)
					for s := 0; s < k; s++ {
						i := v*k + s
						live := e.dist[i] != graph.InfDist && !e.isSent(uint32(v), s)
						if e.unsent != nil && (e.unsent[v*e.wps+s>>6]>>(s&63)&1 == 1) != live {
							failed = fmt.Sprintf("k=%d seed %d host %d after %s: unsent bit of (%d,%d) is not %v", k, seed, h, op, v, s, live)
						}
						if live && e.dist[i] < bestD {
							bestD, bestS = e.dist[i], int32(s)
						}
					}
					rec := e.vs[v]
					if rec.fuSrc != bestS || (bestS >= 0 && rec.fuDist != bestD) {
						failed = fmt.Sprintf("k=%d seed %d host %d after %s: vertex %d first unsent (%d,%d), scan (%d,%d)",
							k, seed, h, op, v, rec.fuDist, rec.fuSrc, bestD, bestS)
					}
				}
			}
			applySync := func(h int, v uint32, s int, d SrcData, r int) {
				e := engines[h]
				before := e.vs[v]
				e.ApplySync(v, s, d.Dist, d.Sigma, r)
				if after := e.vs[v]; before.fuSrc == int32(s) && after.fuSrc >= 0 {
					if after.fuDist == before.fuDist {
						resumed++
					} else {
						rescanned++
					}
				}
				check(h, "ApplySync")
			}

			sources := make([]uint32, k)
			for i := range sources {
				sources[i] = uint32(rng.Intn(n))
				for h, e := range engines {
					e.InitSource(sources[i], i, master(sources[i]) == h)
					check(h, "InitSource")
				}
			}
			type proposal struct {
				h   int
				src int
				d   SrcData
			}
			for r := 1; failed == ""; r++ {
				if r > 2*(n+k)+2 {
					failed = fmt.Sprintf("k=%d seed %d: no quiescence by round %d", k, seed, r)
					break
				}
				props := make(map[uint32][]proposal)
				active := false
				for h, e := range engines {
					for _, f := range e.ForwardFlags(r, nil) {
						props[f.V] = append(props[f.V], proposal{h, int(f.Src), e.Get(f.V, int(f.Src))})
					}
					active = active || e.PendingUnsent()
				}
				if len(props) == 0 {
					if !active {
						break
					}
					continue
				}
				synced := make([]Flag, 0, len(props))
				for v := uint32(0); v < uint32(n); v++ {
					ps := props[v]
					if len(ps) == 0 {
						continue
					}
					w := ps[0]
					for _, p := range ps[1:] {
						if p.d.Dist < w.d.Dist || (p.d.Dist == w.d.Dist && p.src < w.src) {
							w = p
						}
					}
					m := master(v)
					for _, p := range ps {
						if p.src == w.src && p.h != m {
							engines[m].MergePartial(v, p.src, p.d.Dist, p.d.Sigma)
							check(m, "MergePartial")
						}
					}
					d := engines[m].Get(v, w.src)
					for h := range engines {
						applySync(h, v, w.src, d, r)
					}
					synced = append(synced, Flag{V: v, Src: int32(w.src)})
				}
				for h, e := range engines {
					for _, f := range synced {
						e.RelaxOutLocal(f.V, int(f.Src))
						check(h, "RelaxOutLocal")
					}
				}
			}
			if failed != "" {
				t.Log(failed)
				return false
			}
			g := whole.Build()
			for i, s := range sources {
				ref := brandes.SingleSource(g, s)
				for v := uint32(0); v < uint32(n); v++ {
					got := engines[master(v)].Get(v, i)
					if got.Dist != ref.Dist[v] || math.Abs(got.Sigma-ref.Sigma[v]) > 1e-9 {
						t.Logf("k=%d seed %d: (%d,%d) = %+v, Brandes dist %d sigma %v", k, seed, v, i, got, ref.Dist[v], ref.Sigma[v])
						return false
					}
				}
			}
			return true
		}
		count := 25
		if testing.Short() {
			count = 8
		}
		if err := quick.Check(f, &quick.Config{MaxCount: count}); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
	}
	if resumed == 0 || rescanned == 0 {
		t.Fatalf("scan paths not both exercised: %d same-distance resumes, %d full scans", resumed, rescanned)
	}
	t.Logf("%d same-distance resumes, %d full scans", resumed, rescanned)
}

// Property: engine BC equals Brandes on random graphs with random
// source subsets and random batch sizes.
func TestQuickEngineAgainstBrandes(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(40)
		b := graph.NewBuilder(n)
		for i := 0; i < rng.Intn(5*n); i++ {
			b.AddEdge(uint32(rng.Intn(n)), uint32(rng.Intn(n)))
		}
		g := b.Build()
		k := 1 + rng.Intn(n)
		var sources []uint32
		for _, s := range rng.Perm(n)[:k] {
			sources = append(sources, uint32(s))
		}
		batch := 1 + rng.Intn(k)
		got, _ := BC(g, sources, Options{BatchSize: batch})
		want := brandes.Sequential(g, sources)
		return approxEqual(got, want, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: the engine's forward rounds respect k + H for every batch
// (Lemma 8 at the engine level).
func TestQuickEngineRoundBound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(30)
		b := graph.NewBuilder(n)
		for i := 0; i < rng.Intn(4*n); i++ {
			b.AddEdge(uint32(rng.Intn(n)), uint32(rng.Intn(n)))
		}
		g := b.Build()
		k := 1 + rng.Intn(n)
		sources := make([]uint32, k)
		for i, s := range rng.Perm(n)[:k] {
			sources[i] = uint32(s)
		}
		_, _, stats := APSPBatch(g, sources)
		h := MaxFiniteDistance(g, sources)
		return stats.ForwardRounds <= k+int(h)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEngineBC(b *testing.B) {
	g := gen.RMAT(11, 8, 1)
	sources := brandes.FirstKSources(g, 0, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = BC(g, sources, Options{BatchSize: 32})
	}
}

// The single-host engine executes the same pipelining schedule as the
// exact CONGEST simulation: forward rounds agree up to the one silent
// round the CONGEST quiescence detector needs.
func TestEngineRoundsMatchExactCongest(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 15; trial++ {
		n := 5 + rng.Intn(40)
		b := graph.NewBuilder(n)
		for i := 0; i < rng.Intn(4*n); i++ {
			b.AddEdge(uint32(rng.Intn(n)), uint32(rng.Intn(n)))
		}
		g := b.Build()
		k := 1 + rng.Intn(n)
		sources := make([]uint32, k)
		for i, s := range rng.Perm(n)[:k] {
			sources[i] = uint32(s)
		}
		_, _, engStats := APSPBatch(g, sources)
		congest := CongestAPSP(g, CongestOptions{Sources: sources, Mode: ModeQuiesce})
		diff := congest.Stats.ForwardRounds - engStats.ForwardRounds
		if diff < 0 || diff > 1 {
			t.Fatalf("trial %d: engine %d rounds vs CONGEST %d",
				trial, engStats.ForwardRounds, congest.Stats.ForwardRounds)
		}
	}
}

func TestEngineParallelBatchesMatchSequential(t *testing.T) {
	g := gen.RMAT(9, 8, 31)
	sources := brandes.FirstKSources(g, 0, 64)
	seq, seqStats := BC(g, sources, Options{BatchSize: 8, Parallelism: 1})
	par, parStats := BC(g, sources, Options{BatchSize: 8, Parallelism: 4})
	for v := range seq {
		if math.Float64bits(seq[v]) != math.Float64bits(par[v]) {
			t.Fatalf("parallel batches changed BC(%d): %v, sequential %v (not bitwise equal)", v, par[v], seq[v])
		}
	}
	if seqStats != parStats {
		t.Fatalf("stats diverged: %+v vs %+v", seqStats, parStats)
	}
}

func TestEngineAccessors(t *testing.T) {
	g := gen.Path(4)
	e := NewEngine(g, 3)
	if e.K() != 3 {
		t.Fatalf("K = %d", e.K())
	}
	if e.Graph() != g {
		t.Fatal("Graph accessor wrong")
	}
}

func TestEngineMergePrimitivesDirect(t *testing.T) {
	// Exercise the cross-host reduction primitives directly: a master
	// merging mirror partials must min distances and sum σ at the
	// minimum.
	g := gen.Path(3)
	e := NewEngine(g, 2)
	e.MergePartial(1, 0, 4, 2.0) // first partial inserts
	e.MergePartial(1, 0, 4, 3.0) // equal dist: sums
	if d := e.Get(1, 0); d.Dist != 4 || d.Sigma != 5 {
		t.Fatalf("after equal-dist merges: %+v", d)
	}
	e.MergePartial(1, 0, 2, 1.5) // better dist: replaces
	if d := e.Get(1, 0); d.Dist != 2 || d.Sigma != 1.5 {
		t.Fatalf("after improving merge: %+v", d)
	}
	e.MergePartial(1, 0, 9, 7.0) // worse dist: ignored
	if d := e.Get(1, 0); d.Dist != 2 || d.Sigma != 1.5 {
		t.Fatalf("worse merge changed state: %+v", d)
	}

	e.AddDeltaPartial(2, 1, 1.25)
	e.AddDeltaPartial(2, 1, 0.75)
	if got := e.DeltaPartial(2, 1); got != 2 {
		t.Fatalf("delta partial = %v", got)
	}
}

func TestTheoreticalRoundBoundAllModes(t *testing.T) {
	if TheoreticalRoundBound(10, 10, ModeFixed2N, 0, 0) != 20 {
		t.Fatal("fixed mode")
	}
	if TheoreticalRoundBound(10, 10, ModeFinalizer, graph.InfDist, 0) != 20 {
		t.Fatal("finalizer with infinite diameter")
	}
	if TheoreticalRoundBound(100, 100, ModeFinalizer, 3, 0) != 115 {
		t.Fatal("finalizer n+5D")
	}
	if TheoreticalRoundBound(10, 10, ModeFinalizer, 9, 0) != 20 {
		t.Fatal("finalizer 2n cutoff")
	}
	if TheoreticalRoundBound(10, 4, ModeQuiesce, 0, 6) != 11 {
		t.Fatal("quiesce k+H+1")
	}
	if TheoreticalRoundBound(10, 4, ModeQuiesce, 0, graph.InfDist) != 21 {
		t.Fatal("quiesce unknown H")
	}
	var stats CongestStats
	stats.ForwardRounds, stats.BackwardRounds = 3, 4
	stats.ForwardMessages, stats.BackwardMessages = 10, 20
	if stats.Rounds() != 7 || stats.Messages() != 30 {
		t.Fatal("stats accessors")
	}
}
