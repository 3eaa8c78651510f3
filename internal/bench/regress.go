package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"mrbc/internal/brandes"
	"mrbc/internal/gen"
	"mrbc/internal/graph"
	"mrbc/internal/mrbcdist"
	"mrbc/internal/partition"
	"mrbc/internal/sbbc"
)

// ---------------------------------------------------------------------------
// Volume-regression gate: `bcbench -exp regress` re-runs a small fixed
// configuration set and compares against the committed
// BENCH_regress.json baseline. Communication volume and round counts
// are deterministic functions of (graph, seed, options), so they must
// match the baseline exactly. Wall time is not gated here: the
// benchmark/ harness bounds every workload's timing end to end.
// ---------------------------------------------------------------------------

// RegressBaselineFile is the committed baseline's file name.
const RegressBaselineFile = "BENCH_regress.json"

// RegressRow is one guarded configuration's measurement.
type RegressRow struct {
	// Name identifies the configuration (engine/input/hosts); rows are
	// matched to baseline rows by it.
	Name    string `json:"name"`
	Hosts   int    `json:"hosts"`
	Sources int    `json:"sources"`
	Batch   int    `json:"batch,omitempty"`

	// Deterministic outputs: exact match against baseline required.
	Bytes    int64 `json:"bytes"`
	Messages int64 `json:"messages"`
	Rounds   int   `json:"rounds"`
}

// RegressReport is the top-level JSON document (and baseline format).
type RegressReport struct {
	Scale string       `json:"scale"`
	Rows  []RegressRow `json:"rows"`
}

type regressConfig struct {
	name    string
	build   func() *graph.Graph
	sources int
	batch   int
	hosts   int
	run     func(g *graph.Graph, pt *partition.Partitioning, sources []uint32, batch int) (int64, int64, int)
}

func runMRBC(g *graph.Graph, pt *partition.Partitioning, sources []uint32, batch int) (int64, int64, int) {
	_, stats := mrbcdist.Run(g, pt, sources, mrbcdist.Options{BatchSize: batch, Metrics: Telemetry})
	return stats.Bytes, stats.Messages, stats.Rounds
}

func runSBBC(g *graph.Graph, pt *partition.Partitioning, sources []uint32, _ int) (int64, int64, int) {
	_, stats := sbbc.RunOpts(g, pt, sources, sbbc.Options{Metrics: Telemetry})
	return stats.Bytes, stats.Messages, stats.Rounds
}

// regressConfigs is the guarded set: MRBC, the SBBC
// baseline, and both structural input classes (high-diameter grid,
// low-diameter power law) — small enough for CI, wide enough that a
// regression in any engine or either traversal regime trips it.
func regressConfigs(s Scale) []regressConfig {
	grid := func() *graph.Graph { return gen.RoadGrid(24, 24, 104) }
	rmat := func() *graph.Graph { return gen.RMAT(9, 8, 103) }
	if s != Tiny {
		grid = func() *graph.Graph { return gen.RoadGrid(64, 64, 104) }
		rmat = func() *graph.Graph { return gen.RMAT(11, 8, 103) }
	}
	return []regressConfig{
		{"mrbc-arb/roadgrid/2h", grid, 8, 8, 2, runMRBC},
		{"mrbc-arb/rmat/2h", rmat, 8, 8, 2, runMRBC},
		{"sbbc/rmat/2h", rmat, 8, 0, 2, runSBBC},
	}
}

// RegressBench measures every guarded configuration twice; the repeat
// must report the identical volume, or the exact gate would be
// comparing noise.
func RegressBench(scale Scale) RegressReport {
	name := "full"
	if scale == Tiny {
		name = "tiny"
	}
	report := RegressReport{Scale: name}
	for _, cfg := range regressConfigs(scale) {
		g := cfg.build()
		sources := brandes.FirstKSources(g, 0, cfg.sources)
		pt := partition.EdgeCut(g, cfg.hosts)
		row := RegressRow{Name: cfg.name, Hosts: cfg.hosts, Sources: len(sources), Batch: cfg.batch}
		row.Bytes, row.Messages, row.Rounds = cfg.run(g, pt, sources, cfg.batch)
		if bytes, messages, rounds := cfg.run(g, pt, sources, cfg.batch); bytes != row.Bytes || messages != row.Messages || rounds != row.Rounds {
			panic(fmt.Sprintf("bench: %s volume is not deterministic across runs", cfg.name))
		}
		report.Rows = append(report.Rows, row)
	}
	return report
}

// CheckRegress compares a fresh report against the baseline: same
// configuration set and scale, exact volume and round counts.
func CheckRegress(baseline, current RegressReport) error {
	if baseline.Scale != current.Scale {
		return fmt.Errorf("bench: baseline recorded at scale %q, run at %q — regenerate the baseline",
			baseline.Scale, current.Scale)
	}
	base := make(map[string]RegressRow, len(baseline.Rows))
	for _, row := range baseline.Rows {
		base[row.Name] = row
	}
	if len(baseline.Rows) != len(base) {
		return fmt.Errorf("bench: baseline has duplicate rows")
	}
	seen := make(map[string]bool, len(current.Rows))
	for _, row := range current.Rows {
		seen[row.Name] = true
		b, ok := base[row.Name]
		if !ok {
			return fmt.Errorf("bench: config %q has no baseline row — regenerate the baseline", row.Name)
		}
		if row.Bytes != b.Bytes || row.Messages != b.Messages || row.Rounds != b.Rounds {
			return fmt.Errorf("bench: %s volume diverged from baseline: (%d B, %d msgs, %d rounds) vs baseline (%d B, %d msgs, %d rounds)",
				row.Name, row.Bytes, row.Messages, row.Rounds, b.Bytes, b.Messages, b.Rounds)
		}
	}
	for name := range base {
		if !seen[name] {
			return fmt.Errorf("bench: baseline row %q was not re-run", name)
		}
	}
	return nil
}

// LoadRegressBaseline reads a committed baseline document.
func LoadRegressBaseline(path string) (RegressReport, error) {
	var r RegressReport
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("bench: %s: %w", path, err)
	}
	if len(r.Rows) == 0 {
		return r, fmt.Errorf("bench: %s carries no rows", path)
	}
	return r, nil
}

// WriteRegressBaseline writes report as the committed baseline format.
func WriteRegressBaseline(path string, report RegressReport) error {
	return os.WriteFile(path, []byte(FormatRegressBench(report)+"\n"), 0o644)
}

// FormatRegressBench renders the report as indented JSON.
func FormatRegressBench(r RegressReport) string {
	out, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		panic(err) // the report is plain data; marshal cannot fail
	}
	return string(out)
}

// RegressGuard is the `bcbench -exp regress` entry point: re-run the
// guarded configurations and compare against dir's committed baseline.
func RegressGuard(scale Scale, dir string) (RegressReport, error) {
	baseline, err := LoadRegressBaseline(filepath.Join(dir, RegressBaselineFile))
	if err != nil {
		return RegressReport{}, err
	}
	current := RegressBench(scale)
	return current, CheckRegress(baseline, current)
}
