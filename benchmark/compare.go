package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func loadDocument(path string) (document, error) {
	var doc document
	data, err := os.ReadFile(path)
	if err != nil {
		return doc, err
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return doc, fmt.Errorf("%s: %w", path, err)
	}
	return doc, nil
}

// endToEnd indexes a document's tracing-off metrics by workload and name.
func endToEnd(doc document) map[string]map[string]metric {
	out := map[string]map[string]metric{}
	for _, res := range doc.Results {
		if res.Traced {
			continue
		}
		byName := map[string]metric{}
		for _, m := range res.Metrics {
			byName[m.Name] = m
		}
		out[res.Workload] = byName
	}
	return out
}

// verdict judges B against base A on one end-to-end metric. Every
// bounded metric is lower-is-better.
func verdict(d def, a, b metric, sameSeed bool) string {
	switch d.name {
	case "max_abs_err":
		if b.Value <= errTolerance {
			return "within"
		}
		return "worse"
	case "failed_share":
		if b.Value == 0 {
			return "within"
		}
		return "worse"
	}
	if d.class == gate {
		switch {
		case a.Value == b.Value:
			return "identical"
		case sameSeed:
			return "differs"
		}
		return "other-seed"
	}
	iqr := func(m metric) float64 {
		if m.N < 2 || m.Value == 0 {
			return 0
		}
		return (m.Q3 - m.Q1) / m.Value
	}
	switch {
	case iqr(a) > d.bound || iqr(b) > d.bound:
		return "unresolved"
	case b.Value > a.Value*(1+d.bound):
		return "worse"
	}
	return "within"
}

// compareFiles prints one row per (workload, end-to-end metric) of two
// result files, with both medians, their quartiles, the ratio with its
// base, and the verdict the metric's bound gives. It exits non-zero on
// any worse or differs.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	docA, err := loadDocument(pathA)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	docB, err := loadDocument(pathB)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	return compareDocs(docA, docB, stdout)
}

func compareDocs(docA, docB document, stdout io.Writer) int {
	a, b := endToEnd(docA), endToEnd(docB)
	sameSeed := docA.Env.Seed == docB.Env.Seed
	fmt.Fprintf(stdout, "A: rev %s seed %d gomaxprocs %d   B: rev %s seed %d gomaxprocs %d\n",
		docA.Env.Rev, docA.Env.Seed, docA.Env.GoMaxProcs, docB.Env.Rev, docB.Env.Seed, docB.Env.GoMaxProcs)
	fmt.Fprintf(stdout, "%-15s %-19s %12s %25s %12s %25s %10s %6s  %s\n",
		"workload", "metric", "A median", "A q1..q3", "B median", "B q1..q3", "B/A", "bound", "verdict")
	tally := map[string]int{}
	for _, w := range workloads {
		ma, mb := a[w.name], b[w.name]
		if ma == nil || mb == nil {
			continue
		}
		for _, d := range dictionary {
			if d.class == layer {
				continue
			}
			x, y := ma[d.name], mb[d.name]
			v := verdict(d, x, y, sameSeed)
			tally[v]++
			ratio, bound := "n/a", "exact"
			if x.Value != 0 {
				ratio = fmt.Sprintf("%.4f", y.Value/x.Value)
			}
			if d.class == bounded {
				bound = fmt.Sprintf("%.0f%%", d.bound*100)
			}
			quart := func(m metric) string {
				if m.N < 2 {
					return ""
				}
				return fmt.Sprintf("%.5g..%.5g", m.Q1, m.Q3)
			}
			fmt.Fprintf(stdout, "%-15s %-19s %12.6g %25s %12.6g %25s %10s %6s  %s\n",
				w.name, d.name, x.Value, quart(x), y.Value, quart(y), ratio, bound, v)
		}
	}
	fmt.Fprintf(stdout, "ratios are B over base A; %d within, %d identical, %d unresolved, %d worse, %d differs\n",
		tally["within"], tally["identical"], tally["unresolved"], tally["worse"], tally["differs"])
	if tally["worse"]+tally["differs"] > 0 {
		return 1
	}
	return 0
}

// runSpread repeats the acceptance check a driver applies to the
// benchmark itself: every workload n times, each on another seed, and
// for each bounded metric the inter-quartile spread of the n reported
// values as a share of their median, against the metric's bound.
func runSpread(e env, n int, only string, stdout, stderr io.Writer) int {
	code := 0
	for _, w := range workloads {
		if only != "all" && only != w.name {
			continue
		}
		values := map[string][]float64{}
		for i := 0; i < n; i++ {
			ei := e
			ei.Seed = e.Seed + int64(i)
			res, err := child(w, ei, false, "", io.Discard)
			if err != nil || !res.Correct {
				fmt.Fprintf(stderr, "benchmark: %s seed %d failed: %v\n", w.name, ei.Seed, err)
				return 1
			}
			for _, m := range res.Metrics {
				values[m.Name] = append(values[m.Name], m.Value)
			}
		}
		for _, d := range dictionary {
			if d.class != bounded {
				continue
			}
			s := spread(values[d.name])
			note := "steady"
			switch {
			case d.name == "setup_s":
				note = "not gated"
			case s > d.bound:
				note, code = "OVER BOUND", 1
			case s > d.bound/3:
				note = "above a third of the bound"
			}
			fmt.Fprintf(stdout, "%-15s %-19s median %12.6g  spread %6.2f%%  bound %3.0f%%  %-27s %.4g\n",
				w.name, d.name, median(values[d.name]), s*100, d.bound*100, note, values[d.name])
		}
	}
	return code
}
