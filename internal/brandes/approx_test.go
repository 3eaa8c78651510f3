package brandes

import (
	"math"
	"testing"

	"mrbc/internal/gen"
)

func TestApproximateFullSampleIsExact(t *testing.T) {
	g := gen.ErdosRenyi(60, 300, 4)
	exact := SequentialAll(g)
	approx, used := ApproximateBC(g, ApproxOptions{Samples: 60, Seed: 1})
	if used != 60 {
		t.Fatalf("used = %d, want 60", used)
	}
	// With every vertex sampled, scale n/k = 1 and the estimate is exact.
	if !approxEqual(approx, exact, 1e-9) {
		t.Fatal("full-sample approximation is not exact")
	}
}

func TestApproximateClampsSamples(t *testing.T) {
	g := gen.Path(5)
	_, used := ApproximateBC(g, ApproxOptions{Samples: 500, Seed: 2})
	if used != 5 {
		t.Fatalf("used = %d, want clamped 5", used)
	}
}

func TestApproximateRankingQuality(t *testing.T) {
	// On a star, the hub's dominance must show up with few samples.
	g := gen.Star(200)
	approx, used := ApproximateBC(g, ApproxOptions{Samples: 20, Seed: 3})
	if used != 20 {
		t.Fatalf("used = %d", used)
	}
	hub := approx[0]
	for v := 1; v < 200; v++ {
		if approx[v] >= hub {
			t.Fatalf("leaf %d estimated above hub", v)
		}
	}
}

func TestApproximateEstimatorBias(t *testing.T) {
	// Averaging estimates over many seeds should approach exact BC
	// (unbiasedness of the n/k-scaled sampler).
	g := gen.RMAT(7, 8, 6)
	exact := SequentialAll(g)
	n := g.NumVertices()
	avg := make([]float64, n)
	const runs = 40
	for seed := int64(0); seed < runs; seed++ {
		est, _ := ApproximateBC(g, ApproxOptions{Samples: 32, Seed: seed})
		for v := range avg {
			avg[v] += est[v] / runs
		}
	}
	// Compare the top vertex and overall mass within loose tolerance.
	var exactSum, avgSum float64
	for v := range avg {
		exactSum += exact[v]
		avgSum += avg[v]
	}
	if math.Abs(exactSum-avgSum) > 0.15*exactSum {
		t.Fatalf("approximate mass %.1f deviates from exact %.1f", avgSum, exactSum)
	}
	top := func(s []float64) int {
		best := 0
		for v := range s {
			if s[v] > s[best] {
				best = v
			}
		}
		return best
	}
	if top(exact) != top(avg) {
		t.Fatalf("top vertex %d (approx) vs %d (exact)", top(avg), top(exact))
	}
}

func TestApproximateAdaptiveStopsEarly(t *testing.T) {
	// A highly regular graph stabilizes quickly, so the adaptive mode
	// should use fewer samples than the cap.
	g := gen.Star(400)
	_, used := ApproximateBC(g, ApproxOptions{Samples: 400, Seed: 5, Adaptive: true, Tolerance: 0.05})
	if used >= 400 {
		t.Fatalf("adaptive mode used all %d samples", used)
	}
	if used < 8 {
		t.Fatalf("adaptive mode used implausibly few samples: %d", used)
	}
}

func TestApproximateParallelMatchesSerial(t *testing.T) {
	g := gen.RMAT(8, 8, 7)
	a, usedA := ApproximateBC(g, ApproxOptions{Samples: 48, Seed: 9})
	b, usedB := ApproximateBC(g, ApproxOptions{Samples: 48, Seed: 9, Workers: 4})
	if usedA != usedB {
		t.Fatalf("sample counts differ: %d vs %d", usedA, usedB)
	}
	if !bitsEqual(a, b) {
		t.Fatal("parallel approximation differs from serial in some bit")
	}
}

func TestApproximateEmptyGraph(t *testing.T) {
	g := gen.Path(0)
	scores, used := ApproximateBC(g, ApproxOptions{Samples: 10})
	if scores != nil || used != 0 {
		t.Fatal("empty graph should return nothing")
	}
}
