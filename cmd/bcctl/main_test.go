package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestMaterializeGraphRefusals: a generator request that cannot be
// honoured is an error before anything is generated or written.
func TestMaterializeGraphRefusals(t *testing.T) {
	for _, c := range []struct {
		gen   string
		scale int
		want  string
	}{
		{"webcrawl", 1, "-scale >= 2"},
		{"kron", 4, `unknown generator "kron"`},
	} {
		path, g, _, err := materializeGraph("", c.gen, c.scale, 8, 4, 4, 1)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("-gen %s -scale %d: err = %v, want %q", c.gen, c.scale, err, c.want)
		}
		if path != "" || g != nil {
			t.Fatalf("-gen %s -scale %d: produced %q", c.gen, c.scale, path)
		}
	}
}

// TestFlagsRefusedBeforeSpawn: a flag the daemons or the source rule
// would refuse fails bcctl before it starts a single bcd — a negative
// -source-start is not wrapped to a vertex ID, an unknown -partition is
// not left for the daemons to name. The bcd given is a script that
// leaves a mark if it is ever run.
func TestFlagsRefusedBeforeSpawn(t *testing.T) {
	dir := t.TempDir()
	mark := filepath.Join(dir, "spawned")
	bcd := filepath.Join(dir, "bcd")
	if err := os.WriteFile(bcd, []byte("#!/bin/sh\ntouch "+mark+"\n"), 0o755); err != nil {
		t.Fatal(err)
	}
	base := []string{"-bcd", bcd, "-hosts", "2", "-gen", "rmat", "-scale", "5"}
	for _, c := range []struct {
		flags []string
		want  string
	}{
		{[]string{"-source-start", "-1"}, "no sources in [-1, 32)"},
		{[]string{"-source-start", "32"}, "no sources in [32, 32)"},
		{[]string{"-partition", "vertexcut"}, `-partition: unknown partition "vertexcut"`},
		{[]string{"-kill-host", "2"}, "-kill-host 2 out of range for 2 hosts"},
	} {
		err := run(append(append([]string(nil), base...), c.flags...))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%v: err = %v, want %q", c.flags, err, c.want)
		}
		if _, err := os.Stat(mark); err == nil {
			t.Fatalf("%v: a bcd was spawned before the flags were refused", c.flags)
		}
	}
}
