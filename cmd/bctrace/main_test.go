package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"mrbc/internal/dgalois"
	"mrbc/internal/gen"
	"mrbc/internal/mrbcdist"
	"mrbc/internal/obs"
	"mrbc/internal/partition"
)

// recordRun produces a detail-level trace file from a real 2-host
// mrbcdist run and returns its path plus the run's stats.
func recordRun(t *testing.T) (string, dgalois.Stats) {
	t.Helper()
	g := gen.RMAT(7, 8, 3)
	pt := partition.EdgeCut(g, 2)
	tr := obs.NewTrace(1<<18, obs.LevelDetail)
	sources := []uint32{0, 1, 2, 3, 4, 5, 6, 7}
	_, stats := mrbcdist.Run(g, pt, sources, mrbcdist.Options{BatchSize: 4, Trace: tr})
	if tr.Dropped() != 0 {
		t.Fatalf("trace ring dropped %d events", tr.Dropped())
	}
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := obs.WriteJSONL(f, tr.Events()); err != nil {
		t.Fatal(err)
	}
	return path, stats
}

func run(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errOut strings.Builder
	code := realMain(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// TestSummaryMatchesStats pins the acceptance contract: the summary
// totals of a recorded trace are identical to the run's own
// dgalois.Stats accounting.
func TestSummaryMatchesStats(t *testing.T) {
	path, stats := recordRun(t)
	code, out, errOut := run(t, "summary", path)
	if code != 0 {
		t.Fatalf("summary failed (%d): %s", code, errOut)
	}
	for _, want := range []string{
		fmt.Sprintf("pack.bytes      %d\n", stats.Bytes),
		fmt.Sprintf("pack.messages   %d\n", stats.Messages),
		fmt.Sprintf("unpack.bytes    %d\n", stats.Bytes),
		fmt.Sprintf("unpack.messages %d\n", stats.Messages),
		fmt.Sprintf("format.dense    %d\n", stats.Encoding.Dense),
		fmt.Sprintf("format.sparse   %d\n", stats.Encoding.Sparse),
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary output missing %q:\n%s", want, out)
		}
	}
}

// TestImbalanceMatchesStats pins the imbalance pipeline to the
// cluster's LoadImbalance: same groups, same fold order, bit-equal
// ratio.
func TestImbalanceMatchesStats(t *testing.T) {
	path, stats := recordRun(t)
	code, out, errOut := run(t, "imbalance", path)
	if code != 0 {
		t.Fatalf("imbalance failed (%d): %s", code, errOut)
	}
	want := "imbalance.mean " + strconv.FormatFloat(stats.LoadImbalance, 'g', -1, 64) + "\n"
	if !strings.Contains(out, want) {
		t.Fatalf("imbalance output missing %q:\n%s", want, out)
	}
	if !strings.Contains(out, "host  compute") {
		t.Fatalf("imbalance output lacks the per-host table:\n%s", out)
	}
}

func TestRoundsReportsEveryRound(t *testing.T) {
	path, stats := recordRun(t)
	code, out, errOut := run(t, "rounds", path)
	if code != 0 {
		t.Fatalf("rounds failed (%d): %s", code, errOut)
	}
	if !strings.Contains(out, fmt.Sprintf("rounds     %d\n", stats.Rounds)) {
		t.Fatalf("rounds output disagrees with Stats.Rounds = %d:\n%s", stats.Rounds, out)
	}
	if !strings.Contains(out, "critical-path blame") {
		t.Fatalf("rounds output lacks the critical-path table:\n%s", out)
	}
}

func TestCheckAcceptsRealTraceAndRejectsCorrupt(t *testing.T) {
	path, _ := recordRun(t)
	code, out, errOut := run(t, "check", path)
	if code != 0 {
		t.Fatalf("check failed on a valid trace (%d): %s", code, errOut)
	}
	if !strings.Contains(out, "round bounds ok") || !strings.Contains(out, "reversal symmetry ok") {
		t.Fatalf("check output incomplete:\n%s", out)
	}

	// A phase-level trace carries no sends: check says how to record
	// them.
	code, out, errOut = run(t, "check", pipelineFixture)
	if code != 0 || !strings.Contains(out, "reversal skipped (phase-level trace; record at obs.LevelDetail through mrbcdist or sbbc Options.Trace for send events)") {
		t.Fatalf("check on a phase-level trace: exit %d, stdout %q, stderr %q", code, out, errOut)
	}

	// Corrupt the trace: shrink one batch's recorded forward span so a
	// forward send overruns it.
	events := mustLoad(t, path)
	for i := range events {
		if events[i].Kind == obs.KindBatch {
			events[i].FwdRounds = 1
		}
	}
	bad := filepath.Join(t.TempDir(), "bad.jsonl")
	writeTrace(t, bad, events)
	code, _, errOut = run(t, "check", bad)
	if code == 0 {
		t.Fatal("check accepted a corrupted trace")
	}
	if !strings.Contains(errOut, "bctrace:") {
		t.Fatalf("no diagnostic on corrupted trace: %s", errOut)
	}
}

// TestCheckRejectsLemma8Fixture runs check on a batch with k=4, fwd=7,
// back=12: without -H the forward spans admit H = 3, and 7+12+1 = 20
// rounds exceed 2(4+3)+1 = 15.
func TestCheckRejectsLemma8Fixture(t *testing.T) {
	fixture := filepath.Join("..", "..", "internal", "obs", "testdata", "lemma8_k4_fwd7_back12.jsonl")
	code, _, errOut := run(t, "check", fixture)
	if code != 1 || !strings.Contains(errOut, "exceeding the Lemma 8 bound 2(k+H)+1 = 15 (H=3)") {
		t.Fatalf("check on the k=4/7/12 fixture: exit %d, stderr %q", code, errOut)
	}
}

// TestDiffFixtures drives diff over the committed golden/perturbed
// tracetest fixtures: the golden trace matches itself, and the
// perturbed one diverges with a localized first-event report.
func TestDiffFixtures(t *testing.T) {
	golden := filepath.Join("..", "..", "internal", "tracetest", "testdata", "golden_trace.jsonl")
	perturbed := filepath.Join("..", "..", "internal", "tracetest", "testdata", "perturbed_trace.jsonl")

	code, out, errOut := run(t, "diff", golden, golden)
	if code != 0 {
		t.Fatalf("self-diff failed (%d): %s", code, errOut)
	}
	if !strings.Contains(out, "canonically identical") {
		t.Fatalf("self-diff output: %s", out)
	}

	code, out, _ = run(t, "diff", golden, perturbed)
	if code != 1 {
		t.Fatalf("diff of perturbed trace exited %d, want 1", code)
	}
	if !strings.Contains(out, "diverge at canonical event") {
		t.Fatalf("diff output lacks divergence report:\n%s", out)
	}
	// The perturbation moved a backward send of (v=11, src=1) from
	// round 1 to round 2; the report must surface that event.
	if !strings.Contains(out, "V:11") {
		t.Fatalf("diff did not localize the perturbed event:\n%s", out)
	}
}

func TestUsageErrors(t *testing.T) {
	if code, _, _ := run(t); code != 2 {
		t.Fatal("no-args did not exit 2")
	}
	if code, _, _ := run(t, "bogus"); code != 2 {
		t.Fatal("unknown command did not exit 2")
	}
	if code, _, _ := run(t, "crit", "merged.jsonl"); code != 2 {
		t.Fatal("the deleted crit command did not exit 2 as unknown")
	}
	if code, _, _ := run(t, "summary"); code != 2 {
		t.Fatal("summary without a file did not exit 2")
	}
	if code, _, _ := run(t, "diff", "only-one.jsonl"); code != 2 {
		t.Fatal("diff with one file did not exit 2")
	}
	if code, _, _ := run(t, "summary", filepath.Join(t.TempDir(), "missing.jsonl")); code != 1 {
		t.Fatal("missing file did not exit 1")
	}
}

func mustLoad(t *testing.T, path string) []obs.Event {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := obs.ReadEvents(f)
	if err != nil {
		t.Fatal(err)
	}
	return events
}

func writeTrace(t *testing.T, path string, events []obs.Event) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := obs.WriteJSONL(f, events); err != nil {
		t.Fatal(err)
	}
}
