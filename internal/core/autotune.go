package core

import (
	"time"

	"mrbc/internal/graph"
)

// sharedLabelBudget bounds the label slabs (labelBytesPerPair per
// vertex·source per engine, TestEngineMemoryBudget) of the engines
// planShared runs side by side: past it, fewer batches run at once.
const (
	sharedLabelBudget = 1 << 30
	labelBytesPerPair = 24
)

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
		loop := &batchLoop{g: g, kmax: min(k, len(probe))}
		for off := 0; off < len(probe); off += k {
			loop.compute(probe[off:min(off+k, len(probe))], &stats)
		}
		if elapsed := time.Since(start); bestTime < 0 || elapsed < bestTime {
			bestTime = elapsed
			best = k
		}
	}
	return best
}
