package core

import (
	"runtime"
	"time"

	"mrbc/internal/graph"
)

// autotuneWorkCrossover is the intra-batch parallelization crossover in
// (vertex, source) labels per batch. The parallel runtime's costs are
// per-round barriers (two pool phases) and per-shard outbox traffic;
// its payoff grows with the labels a batch pushes through those rounds,
// which is at most n·k. Below ~32k labels the whole batch tends to run
// under the inline gate anyway (frontiers of at most a few hundred
// pairs per round), so fanning out buys barriers and no speedup; above
// it, each additional worker amortizes over thousands of edge
// relaxations per round. One worker per crossover-multiple, capped at
// GOMAXPROCS, keeps tiny inputs strictly serial while large inputs get
// the full machine.
const autotuneWorkCrossover = 1 << 15

// sharedLabelBudget bounds the label slabs (labelBytesPerPair per
// vertex·source per engine, TestEngineMemoryBudget) of the engines
// planShared runs side by side: past it, cores go to intra-batch
// workers on fewer engines instead.
const (
	sharedLabelBudget = 1 << 30
	labelBytesPerPair = 36
)

// AutotuneWorkers picks the intra-batch worker count for a batched run
// over g from the machine width (runtime.GOMAXPROCS) and the expected
// per-batch work n·k (the frontier mass all rounds share). Options
// resolves Workers=0 through it.
func AutotuneWorkers(g *graph.Graph, batchSize int) int {
	return autotuneWorkers(int64(g.NumVertices())*int64(max(batchSize, 1)), runtime.GOMAXPROCS(0))
}

// autotuneWorkers is one worker per crossover-multiple of nk labels,
// within [1, maxw].
func autotuneWorkers(nk int64, maxw int) int {
	return int(max(1, min(nk/autotuneWorkCrossover, int64(maxw))))
}

// AutotuneBatch picks a batch size for MRBC by probing: the paper
// observes that the best k balances round reduction against
// data-structure overhead and suggests autotuning ("the tradeoff ...
// can be explored using a method such as autotuning", §5.2). Each
// candidate runs the forward phase on a small probe prefix of the
// sources; the fastest candidate wins.
//
// candidates defaults to {16, 32, 64, 128} when nil. probeSources
// bounds the number of sources used per probe (default 32; probes are
// capped at len(sources)).
func AutotuneBatch(g *graph.Graph, sources []uint32, candidates []int, probeSources int) int {
	if len(candidates) == 0 {
		candidates = []int{16, 32, 64, 128}
	}
	if probeSources <= 0 {
		probeSources = 32
	}
	if probeSources > len(sources) {
		probeSources = len(sources)
	}
	if probeSources == 0 {
		return candidates[0]
	}
	probe := sources[:probeSources]
	best := candidates[0]
	bestTime := time.Duration(-1)
	for _, k := range candidates {
		if k <= 0 {
			continue
		}
		start := time.Now()
		var stats RunStats
		// The probe runs the engine BC would plan for all the sources.
		loop := &batchLoop{g: g, kmax: min(k, len(probe)), opts: Options{BatchSize: k}.planned(g, len(sources))}
		for off := 0; off < len(probe); off += k {
			loop.compute(probe[off:min(off+k, len(probe))], &stats)
		}
		loop.close()
		if elapsed := time.Since(start); bestTime < 0 || elapsed < bestTime {
			bestTime = elapsed
			best = k
		}
	}
	return best
}
