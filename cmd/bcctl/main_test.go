package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"mrbc/internal/gen"
	"mrbc/internal/graph"
)

// TestMaterializeGraphRefusals: a generator request that cannot be
// honoured is an error before anything is generated or written.
func TestMaterializeGraphRefusals(t *testing.T) {
	for _, c := range []struct {
		gen  string
		p    gen.Params
		want string
	}{
		{"webcrawl", gen.Params{Scale: -1, EdgeFactor: 8}, "-scale in [0, 30]"},
		{"road", gen.Params{Rows: 0, Cols: 4}, "positive -rows and -cols"},
		{"bogus", gen.Params{Scale: 4}, `unknown generator "bogus"`},
		{"", gen.Params{Scale: 4}, "need -graph or -gen"},
	} {
		path, g, _, err := materializeGraph("", c.gen, c.p)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("-gen %q %+v: err = %v, want %q", c.gen, c.p, err, c.want)
		}
		if path != "" || g != nil {
			t.Fatalf("-gen %q %+v: produced %q", c.gen, c.p, path)
		}
	}
}

// TestMaterializeGraphSavesWhatItBuilt: bcctl takes kron, builds -gen
// webcrawl -scale 10 with bc's 8 tails of 50 vertices, and saves the
// graph it built for the daemons to load.
func TestMaterializeGraphSavesWhatItBuilt(t *testing.T) {
	p := gen.Params{Scale: 10, EdgeFactor: 8, Tails: gen.DefaultTails, TailLen: gen.DefaultTailLen, Seed: 1}
	for name, vertices := range map[string]int{"webcrawl": 1<<10 + 8*50, "kron": 1 << 10} {
		path, g, cleanup, err := materializeGraph("", name, p)
		if err != nil {
			t.Fatalf("-gen %s: %v", name, err)
		}
		defer cleanup()
		if g.NumVertices() != vertices {
			t.Fatalf("-gen %s: %d vertices, want %d", name, g.NumVertices(), vertices)
		}
		if saved, err := graph.Load(path); err != nil || !reflect.DeepEqual(saved, g) {
			t.Fatalf("-gen %s: %s does not hold the graph built (%v)", name, path, err)
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
