package main

import (
	"flag"
	"fmt"
	"strings"
	"testing"

	"mrbc/internal/gen"
	"mrbc/internal/mrbcdist"
	"mrbc/internal/obs"
	"mrbc/internal/partition"
)

var update = flag.Bool("update", false, "rewrite testdata/pipeline_trace.jsonl from a fresh run")

// pipelineFixture is a committed phase-level trace of a 2-host run with
// PipelineDepth=2, carrying HiddenNs on its exchange events. Timings
// are machine-dependent, so tests assert structure and self-consistency
// against the file's own contents, never exact durations. Regenerate
// with `go test ./cmd/bctrace -run RoundsOverlapFixture -update`.
const pipelineFixture = "testdata/pipeline_trace.jsonl"

func recordPipelineTrace(t *testing.T, path string) {
	t.Helper()
	g := gen.RMAT(7, 8, 3)
	pt := partition.EdgeCut(g, 2)
	tr := obs.NewTrace(1<<16, obs.LevelPhase)
	sources := []uint32{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}
	mrbcdist.Run(g, pt, sources, mrbcdist.Options{
		BatchSize: 4, PipelineDepth: 2, Trace: tr,
	})
	if tr.Dropped() != 0 {
		t.Fatalf("trace ring dropped %d events", tr.Dropped())
	}
	writeTrace(t, path, tr.Events())
}

// TestRoundsOverlapFixture drives `rounds -overlap` over the committed
// pipelined fixture and checks the overlap table reproduces exactly
// the totals a RoundAccum folds from the same file.
func TestRoundsOverlapFixture(t *testing.T) {
	if *update {
		recordPipelineTrace(t, pipelineFixture)
	}
	code, out, errOut := run(t, "rounds", "-overlap", pipelineFixture)
	if code != 0 {
		t.Fatalf("rounds -overlap failed (%d): %s", code, errOut)
	}
	var a obs.RoundAccum
	for _, e := range mustLoad(t, pipelineFixture) {
		a.Observe(e)
	}
	r := a.Report()
	var exchNs, hiddenNs int64
	for _, rc := range r.Rounds {
		if rc.Round == 0 {
			continue // setup slice, trimmed from the table
		}
		exchNs += rc.ExchangeNs
		hiddenNs += rc.HiddenNs
	}
	if hiddenNs <= 0 {
		t.Fatal("pipelined fixture hid no exchange time; re-record it")
	}
	want := "overlap.efficiency " + formatG(float64(hiddenNs)/float64(exchNs+hiddenNs)) + "\n"
	if !strings.Contains(out, want) {
		t.Fatalf("overlap output missing %q:\n%s", want, out)
	}
	if !strings.Contains(out, "round  exchange      hidden") {
		t.Fatalf("overlap output lacks the per-round table:\n%s", out)
	}
	// The plain rounds view on the same trace stays intact.
	if !strings.Contains(out, "critical-path host") {
		t.Fatalf("overlap mode dropped the base report:\n%s", out)
	}
}

// TestRoundsOverlapSerialTraceZero pins the non-pipelined baseline: a
// serial trace reports zero hidden time and zero overlap efficiency.
func TestRoundsOverlapSerialTraceZero(t *testing.T) {
	path, _ := recordRun(t)
	code, out, errOut := run(t, "rounds", "-overlap", path)
	if code != 0 {
		t.Fatalf("rounds -overlap failed on a serial trace (%d): %s", code, errOut)
	}
	if !strings.Contains(out, "hidden.total   0s\n") {
		t.Fatalf("serial trace reported nonzero hidden time:\n%s", out)
	}
	if !strings.Contains(out, "overlap.efficiency 0\n") {
		t.Fatalf("serial trace reported nonzero overlap efficiency:\n%s", out)
	}
}

// TestRoundsWithoutOverlapFlagUnchanged guards the default view: no
// overlap table unless asked for.
func TestRoundsWithoutOverlapFlagUnchanged(t *testing.T) {
	code, out, errOut := run(t, "rounds", pipelineFixture)
	if code != 0 {
		t.Fatalf("rounds failed (%d): %s", code, errOut)
	}
	for _, banned := range []string{"overlap.efficiency", "hidden.total"} {
		if strings.Contains(out, banned) {
			t.Fatalf("plain rounds output leaked %s:\n%s", banned, out)
		}
	}
	if !strings.Contains(out, fmt.Sprintf("rounds     %d\n", countRounds(t))) {
		t.Fatalf("rounds output disagrees with the fixture's own round count:\n%s", out)
	}
}

func countRounds(t *testing.T) int {
	t.Helper()
	var a obs.RoundAccum
	for _, e := range mustLoad(t, pipelineFixture) {
		a.Observe(e)
	}
	n := 0
	for _, rc := range a.Report().Rounds {
		if rc.Round != 0 {
			n++
		}
	}
	return n
}
