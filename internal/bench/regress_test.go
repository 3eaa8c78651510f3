package bench

import (
	"path/filepath"
	"strings"
	"testing"
)

// syntheticReport builds a baseline-shaped report without running the
// engines, for pure-unit guard tests.
func syntheticReport() RegressReport {
	return RegressReport{
		Scale: "tiny",
		Rows: []RegressRow{
			{Name: "mrbc-arb/roadgrid/2h", Hosts: 2, Sources: 8, Batch: 8, Bytes: 1000, Messages: 40, Rounds: 90},
			{Name: "sbbc/rmat/2h", Hosts: 2, Sources: 8, Bytes: 2000, Messages: 60, Rounds: 120},
		},
	}
}

func TestCheckRegressAcceptsMatchingRun(t *testing.T) {
	if err := CheckRegress(syntheticReport(), syntheticReport()); err != nil {
		t.Fatalf("matching run rejected: %v", err)
	}
}

func TestCheckRegressDetectsVolumeDrift(t *testing.T) {
	base := syntheticReport()
	cur := syntheticReport()
	cur.Rows[0].Bytes++
	err := CheckRegress(base, cur)
	if err == nil {
		t.Fatal("a single extra byte passed the exact-volume guard")
	}
	if !strings.Contains(err.Error(), "volume diverged") || !strings.Contains(err.Error(), "mrbc-arb/roadgrid/2h") {
		t.Fatalf("unhelpful diagnostic: %v", err)
	}
}

func TestCheckRegressDetectsShapeMismatch(t *testing.T) {
	base := syntheticReport()

	missing := syntheticReport()
	missing.Rows = missing.Rows[:1]
	if err := CheckRegress(base, missing); err == nil {
		t.Fatal("a dropped config passed the guard")
	}

	extra := syntheticReport()
	extra.Rows = append(extra.Rows, RegressRow{Name: "mystery/1h"})
	if err := CheckRegress(base, extra); err == nil {
		t.Fatal("an unknown config passed the guard")
	}

	rescaled := syntheticReport()
	rescaled.Scale = "full"
	if err := CheckRegress(base, rescaled); err == nil {
		t.Fatal("a scale mismatch passed the guard")
	}
}

// TestRegressBenchSelfConsistent runs the real guarded set once and
// checks it against itself: the volume columns must be deterministic
// (RegressBench panics internally if a repeat diverges) and the report
// must round-trip through the baseline file format.
func TestRegressBenchSelfConsistent(t *testing.T) {
	report := RegressBench(Tiny)
	if len(report.Rows) != len(regressConfigs(Tiny)) {
		t.Fatalf("rows = %d, want %d", len(report.Rows), len(regressConfigs(Tiny)))
	}
	for _, row := range report.Rows {
		if row.Bytes == 0 || row.Messages == 0 || row.Rounds == 0 {
			t.Fatalf("degenerate row: %+v", row)
		}
	}
	if err := CheckRegress(report, report); err != nil {
		t.Fatalf("self-check failed: %v", err)
	}

	path := filepath.Join(t.TempDir(), RegressBaselineFile)
	if err := WriteRegressBaseline(path, report); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadRegressBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckRegress(loaded, report); err != nil {
		t.Fatalf("round-tripped baseline rejects its own run: %v", err)
	}
}

// TestCommittedRegressBaselineCurrent re-runs the guarded set against
// the repo's committed baseline — the same comparison CI makes. If
// this fails after an intentional perf or protocol change, regenerate
// with `bcbench -exp regress-baseline`.
func TestCommittedRegressBaselineCurrent(t *testing.T) {
	baseline, err := LoadRegressBaseline(filepath.Join("..", "..", RegressBaselineFile))
	if err != nil {
		t.Fatalf("committed baseline unreadable (regenerate with bcbench -exp regress-baseline): %v", err)
	}
	if err := CheckRegress(baseline, RegressBench(Tiny)); err != nil {
		t.Fatalf("run diverges from committed baseline: %v", err)
	}
}
