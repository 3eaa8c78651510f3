package main

import (
	"math"
	"sort"
)

// quartiles returns the first quartile, median and third quartile the
// way Python's statistics.quantiles(values, n=4) does (exclusive
// method), so spreads computed here match the ones the acceptance
// check computes from the same numbers. Fewer than two values have no
// spread: all three are the value itself (0 for none).
func quartiles(values []float64) (q1, q2, q3 float64) {
	n := len(values)
	if n == 0 {
		return 0, 0, 0
	}
	x := append([]float64(nil), values...)
	sort.Float64s(x)
	if n == 1 {
		return x[0], x[0], x[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = min(max(j, 1), n-1)
		delta := i*m - j*4
		return (x[j-1]*float64(4-delta) + x[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

func median(values []float64) float64 {
	_, m, _ := quartiles(values)
	return m
}

// spread is the inter-quartile range as a share of the median.
func spread(values []float64) float64 {
	q1, m, q3 := quartiles(values)
	if m == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(m)
}

// tail returns the highest percentile of values that still has at
// least ten samples beyond it, with its label ("p99" for 1000 samples).
// With fewer than twenty samples there is no such percentile.
func tail(values []float64) (v float64, label string, ok bool) {
	n := len(values)
	if n < 20 {
		return 0, "", false
	}
	x := append([]float64(nil), values...)
	sort.Float64s(x)
	for _, p := range []struct {
		label string
		share float64
	}{{"p99.9", 0.999}, {"p99", 0.99}, {"p95", 0.95}, {"p90", 0.90}, {"p75", 0.75}, {"p50", 0.50}} {
		idx := int(math.Ceil(p.share*float64(n))) - 1
		if n-1-idx >= 10 {
			return x[idx], p.label, true
		}
	}
	return 0, "", false
}

func maxAbsDiff(a, b []float64) float64 {
	if len(a) != len(b) {
		return math.Inf(1)
	}
	worst := 0.0
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > worst || math.IsNaN(d) {
			worst = d
		}
	}
	return worst
}
