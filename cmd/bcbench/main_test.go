package main

import (
	"bytes"
	"strings"
	"testing"
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
	for _, want := range []string{"nope", "table1", "fig3", "model", "all"} {
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
