package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"mrbc/internal/bench"
)

// run invokes realMain with captured output; only fast validation
// paths are exercised here (no experiment actually runs).
func run(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = realMain(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestUnknownExperimentExitsNonZeroAndListsValid(t *testing.T) {
	code, _, stderr := run("-exp", "nope")
	if code == 0 {
		t.Fatal("unknown experiment exited zero")
	}
	for _, want := range []string{"nope", "table1", "regress", "model", "all"} {
		if !strings.Contains(stderr, want) {
			t.Fatalf("error message %q does not mention %q", stderr, want)
		}
	}
}

func TestUnknownScaleExitsNonZero(t *testing.T) {
	code, _, stderr := run("-scale", "huge", "-exp", "summary")
	if code == 0 || !strings.Contains(stderr, "huge") {
		t.Fatalf("code=%d stderr=%q", code, stderr)
	}
}

func TestUnknownFlagExitsNonZero(t *testing.T) {
	code, _, _ := run("-definitely-not-a-flag")
	if code == 0 {
		t.Fatal("unknown flag exited zero")
	}
}

// TestFlagsTheExperimentIgnoresAreRefused pins that a flag the chosen
// experiment would silently ignore exits non-zero before anything runs:
// -input outside the paper experiments, -baseline outside regress.
func TestFlagsTheExperimentIgnoresAreRefused(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-exp", "regress", "-input", "social"}, "-input"},
		{[]string{"-exp", "regress-baseline", "-input", "social"}, "-input"},
		{[]string{"-exp", "summary", "-baseline", "."}, "-baseline"},
		{[]string{"-exp", "all", "-baseline", "."}, "-baseline"},
	} {
		code, _, stderr := run(tc.args...)
		if code != 1 || !strings.Contains(stderr, tc.want) {
			t.Errorf("%v: code=%d stderr=%q, want exit 1 naming %s", tc.args, code, stderr, tc.want)
		}
	}
}

func TestUnknownInputExitsNonZero(t *testing.T) {
	code, _, stderr := run("-exp", "summary", "-input", "no-such-graph")
	if code == 0 || stderr == "" {
		t.Fatalf("code=%d stderr=%q", code, stderr)
	}
}

func TestAllSequenceIsRegistered(t *testing.T) {
	for _, name := range allSequence {
		if _, ok := experiments[name]; !ok {
			t.Fatalf("-exp all includes unregistered experiment %q", name)
		}
	}
}

// TestServeRejectsMalformedAddress pins the -serve failure path: a
// bad listen address exits non-zero before any experiment runs.
func TestServeRejectsMalformedAddress(t *testing.T) {
	code, _, stderr := run("-exp", "summary", "-serve", "127.0.0.1:99999")
	if code == 0 {
		t.Fatal("malformed -serve address exited zero")
	}
	if !strings.Contains(stderr, "-serve") {
		t.Fatalf("no -serve diagnostic: %q", stderr)
	}
}

func TestLingerRequiresServe(t *testing.T) {
	code, _, stderr := run("-exp", "summary", "-linger", "1s")
	if code == 0 || !strings.Contains(stderr, "-linger requires -serve") {
		t.Fatalf("code=%d stderr=%q", code, stderr)
	}
}

// TestRegressFailsOnDriftedBaseline is the gate's end-to-end failure
// path: against a baseline one row of which is off by a single byte,
// `bcbench -exp regress` must exit non-zero and name that row's
// volume.
func TestRegressFailsOnDriftedBaseline(t *testing.T) {
	report := bench.RegressBench(bench.Tiny)
	report.Rows[1].Bytes++
	dir := t.TempDir()
	if err := bench.WriteRegressBaseline(filepath.Join(dir, bench.RegressBaselineFile), report); err != nil {
		t.Fatal(err)
	}
	code, _, stderr := run("-exp", "regress", "-scale", "tiny", "-baseline", dir)
	if code == 0 {
		t.Fatal("regress passed against a baseline with one byte of drift")
	}
	if !strings.Contains(stderr, report.Rows[1].Name) || !strings.Contains(stderr, "volume") {
		t.Fatalf("diagnostic does not name the drifted row's volume: %q", stderr)
	}
}

// TestRegressPassesAgainstCommitted runs the exact CI invocation
// against the repo's committed baselines.
func TestRegressPassesAgainstCommitted(t *testing.T) {
	code, out, stderr := run("-exp", "regress", "-scale", "tiny", "-baseline", filepath.Join("..", ".."))
	if code != 0 {
		t.Fatalf("regress failed against the committed baseline: %s", stderr)
	}
	if !strings.Contains(out, "mrbc-arb/roadgrid/2h") {
		t.Fatalf("regress report incomplete:\n%s", out)
	}
}

func TestRegressMissingBaselineExitsNonZero(t *testing.T) {
	code, _, stderr := run("-exp", "regress", "-scale", "tiny", "-baseline", t.TempDir())
	if code == 0 || stderr == "" {
		t.Fatalf("code=%d stderr=%q", code, stderr)
	}
}
