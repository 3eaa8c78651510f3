package brandes

import (
	"math/rand"

	"mrbc/internal/graph"
)

// Approximate betweenness centrality via source sampling (Bader,
// Kintali, Madduri, Mihail — WAW'07), the estimator the paper's
// evaluation methodology builds on ("The BC of a vertex can be
// approximated by summing the betweenness scores of that vertex for
// randomly sampled sources", §5.1). Summed scores over a uniform
// sample of k sources, scaled by n/k, are an unbiased estimator of
// exact BC.

// ApproxOptions configures ApproximateBC.
type ApproxOptions struct {
	// Samples is the number of sampled sources (clamped to n). Values
	// <= 0 default to 64, well past the point of useful rankings on
	// most graphs.
	Samples int
	// Seed drives the sampler; runs are deterministic per seed.
	Seed int64
	// Workers parallelizes over sampled sources; default 1.
	Workers int
	// Adaptive stops early once the running estimate of the maximum BC
	// stabilizes (relative change below Tolerance across a batch of 8
	// samples), the spirit of Bader et al.'s adaptive cutoff.
	Adaptive  bool
	Tolerance float64
}

// ApproximateBC estimates exact BC by sampling sources uniformly
// without replacement and scaling by n/k. It returns the estimates and
// the number of samples actually used.
func ApproximateBC(g *graph.Graph, opts ApproxOptions) ([]float64, int) {
	n := g.NumVertices()
	if n == 0 {
		return nil, 0
	}
	samples := opts.Samples
	if samples <= 0 {
		samples = 64
	}
	if samples > n {
		samples = n
	}
	tol := opts.Tolerance
	if tol <= 0 {
		tol = 0.01
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	perm := rng.Perm(n)

	scores := make([]float64, n)
	used := 0
	prevMax := -1.0
	const adaptiveBatch = 8
	for used < samples {
		batch := adaptiveBatch
		if !opts.Adaptive {
			batch = samples
		}
		if used+batch > samples {
			batch = samples - used
		}
		sources := make([]uint32, batch)
		for i := range sources {
			sources[i] = uint32(perm[used+i])
		}
		foldSources(g, sources, opts.Workers, scores)
		used += batch
		if !opts.Adaptive {
			break
		}
		// Stop when the scaled maximum stabilizes.
		curMax := 0.0
		for _, x := range scores {
			if x > curMax {
				curMax = x
			}
		}
		curMax *= float64(n) / float64(used)
		if prevMax > 0 && relDiff(curMax, prevMax) < tol {
			break
		}
		prevMax = curMax
	}

	scale := float64(n) / float64(used)
	for v := range scores {
		scores[v] *= scale
	}
	return scores, used
}

func relDiff(a, b float64) float64 {
	d := a - b
	if d < 0 {
		d = -d
	}
	m := a
	if b > m {
		m = b
	}
	if m == 0 {
		return 0
	}
	return d / m
}
