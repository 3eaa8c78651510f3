package bench

import (
	"errors"
	"flag"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the committed BENCH_regress.json from a fresh run")

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
	report := RegressBench()
	if len(report.Rows) != len(regressConfigs()) {
		t.Fatalf("rows = %d, want %d", len(report.Rows), len(regressConfigs()))
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

func TestLoadRegressBaselineMissingFile(t *testing.T) {
	_, err := LoadRegressBaseline(filepath.Join(t.TempDir(), RegressBaselineFile))
	if !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing baseline: err = %v, want a not-exist error", err)
	}
}

// TestCommittedRegressBaselineCurrent is the volume gate: it re-runs
// the guarded set against the repo's committed baseline and requires
// bytes, messages and rounds to match exactly. After an intentional
// protocol change, re-record the baseline with -update.
func TestCommittedRegressBaselineCurrent(t *testing.T) {
	path := filepath.Join("..", "..", RegressBaselineFile)
	current := RegressBench()
	if *update {
		if err := WriteRegressBaseline(path, current); err != nil {
			t.Fatal(err)
		}
	}
	baseline, err := LoadRegressBaseline(path)
	if err != nil {
		t.Fatalf("committed baseline unreadable (re-record with -update): %v", err)
	}
	if err := CheckRegress(baseline, current); err != nil {
		t.Fatalf("run diverges from committed baseline: %v", err)
	}
	for _, row := range current.Rows {
		t.Logf("%s: %d B, %d msgs, %d rounds", row.Name, row.Bytes, row.Messages, row.Rounds)
	}
}
