package main

import (
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
