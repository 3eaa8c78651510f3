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

// TestRoundsOverlapFixture drives `rounds` over the committed
// pipelined fixture and checks its overlap totals and round count
// reproduce exactly what a RoundAccum folds from the same file.
func TestRoundsOverlapFixture(t *testing.T) {
	if *update {
		recordPipelineTrace(t, pipelineFixture)
	}
	code, out, errOut := run(t, "rounds", pipelineFixture)
	if code != 0 {
		t.Fatalf("rounds failed (%d): %s", code, errOut)
	}
	var a obs.RoundAccum
	for _, e := range mustLoad(t, pipelineFixture) {
		a.Observe(e)
	}
	r := a.Report()
	var exchNs, hiddenNs int64
	for _, rc := range r.Rounds {
		exchNs += rc.ExchangeNs
		hiddenNs += rc.HiddenNs
	}
	if hiddenNs <= 0 {
		t.Fatal("pipelined fixture hid no exchange time; re-record it")
	}
	for _, want := range []string{
		fmt.Sprintf("rounds     %d\n", len(r.Rounds)),
		"overlap.efficiency " + formatG(float64(hiddenNs)/float64(exchNs+hiddenNs)) + "\n",
		"critical-path blame (rounds bounded):\n",
		"slowest rounds (epoch round host bound mean exchange hidden):\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("rounds output missing %q:\n%s", want, out)
		}
	}
}

// TestRoundsOverlapSerialTraceZero pins the non-pipelined baseline: a
// serial trace reports zero hidden time and zero overlap efficiency.
func TestRoundsOverlapSerialTraceZero(t *testing.T) {
	path, _ := recordRun(t)
	code, out, errOut := run(t, "rounds", path)
	if code != 0 {
		t.Fatalf("rounds failed on a serial trace (%d): %s", code, errOut)
	}
	if !strings.Contains(out, "hidden.total   0s\n") {
		t.Fatalf("serial trace reported nonzero hidden time:\n%s", out)
	}
	if !strings.Contains(out, "overlap.efficiency 0\n") {
		t.Fatalf("serial trace reported nonzero overlap efficiency:\n%s", out)
	}
}

// TestRoundsTakesNoFlags: rounds always prints its whole report, so
// the flags it once took are usage errors, not file names.
func TestRoundsTakesNoFlags(t *testing.T) {
	for _, flag := range []string{"-overlap", "-top"} {
		code, _, errOut := run(t, "rounds", flag, pipelineFixture)
		if code != 2 || !strings.Contains(errOut, "unknown flag "+flag) {
			t.Fatalf("rounds %s: exit %d, stderr %q; want exit 2 naming the flag", flag, code, errOut)
		}
	}
}
