package brandes

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mrbc/internal/graph"
	"mrbc/internal/worklist"
)

// WeightedAsync is the weighted mode of the ABBC baseline: asynchronous
// label-correcting shortest-path relaxation with no rounds and no
// barrier — cfg.Workers goroutines serve an OBIM-style ordered worklist
// keyed by tentative distance, so relaxations run in near-Dijkstra
// order and distances settle at the fixpoint — followed by WeightedBC's
// distance-ordered σ and dependency sweeps. Sources run one at a time.
// Weighted graphs are where asynchrony helps most: a label-correcting
// run wastes some relaxations but never waits at a barrier.
func WeightedAsync(g *graph.Weighted, sources []uint32, cfg AsyncConfig) []float64 {
	cfg = cfg.withDefaults()
	return WeightedBC(g, sources, 1, func(s uint32) []uint64 { return weightedAsyncForward(g, s, cfg) })
}

// weightedAsyncForward returns the distances from s, settled by
// asynchronous label-correcting relaxation over an ordered (OBIM-style) worklist: tentative
// distances serve as priorities, so work proceeds in near-Dijkstra
// order without any global barrier, bounding re-relaxations the way
// the Lonestar scheduler does.
func weightedAsyncForward(g *graph.Weighted, s uint32, cfg AsyncConfig) []uint64 {
	dist := make([]uint64, g.NumVertices())
	for i := range dist {
		dist[i] = graph.InfWeightedDist
	}
	atomic.StoreUint64(&dist[s], 0)
	wl := worklist.NewOrdered(cfg.ChunkSize)
	wl.Push(0, uint64(s))

	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []uint64
			idle := 0
			for {
				buf = wl.PopChunk(buf[:0])
				if len(buf) == 0 {
					if wl.Empty() {
						return
					}
					idle++
					if idle < 4 {
						runtime.Gosched()
					} else {
						time.Sleep(time.Duration(idle) * 5 * time.Microsecond)
						if idle > 50 {
							idle = 50
						}
					}
					continue
				}
				idle = 0
				for _, item := range buf {
					u := uint32(item)
					du := atomic.LoadUint64(&dist[u])
					if du == graph.InfWeightedDist {
						continue
					}
					dsts, ws := g.OutEdges(u)
					for i, v := range dsts {
						cand := du + uint64(ws[i])
						for {
							old := atomic.LoadUint64(&dist[v])
							if old <= cand {
								break
							}
							if atomic.CompareAndSwapUint64(&dist[v], old, cand) {
								wl.Push(cand, uint64(v))
								break
							}
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	return dist
}
