package sbbc

import (
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mrbc/internal/brandes"
	"mrbc/internal/gen"
	"mrbc/internal/graph"
	"mrbc/internal/partition"
)

var update = flag.Bool("update", false, "rewrite testdata/digest.golden from a fresh run")

const digestGolden = "testdata/digest.golden"

// digestConfig is one cell of the bit-identity grid: 5 graphs × 2/4/8
// hosts × edge/cartesian cut. The names keep the "/dofalse/auto" suffix
// of the grid that once also swept push/pull and forced wire formats, so
// the golden's lines and hashes stay those it was recorded with.
type digestConfig struct {
	name    string
	g       *graph.Graph
	sources []uint32
	pt      *partition.Partitioning
}

func digestConfigs() []digestConfig {
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"road", gen.RoadGrid(16, 16, 7)},
		{"rmat", gen.RMAT(9, 8, 5)},
		{"web", gen.WebCrawl(7, 6, 3, 12, 8)},
		// Directed and below the connectivity threshold: most vertices
		// are unreachable from any one source, some sources have no
		// out-edge at all.
		{"sparse", gen.ErdosRenyi(300, 360, 9)},
		// Every frontier is a single vertex.
		{"path", gen.Path(48)},
	}
	cuts := []struct {
		name string
		cut  func(*graph.Graph, int) *partition.Partitioning
	}{{"edge", partition.EdgeCut}, {"cart", partition.CartesianCut}}
	var out []digestConfig
	for _, gr := range graphs {
		sources := brandes.FirstKSources(gr.g, 0, 12)
		for _, hosts := range []int{2, 4, 8} {
			for _, c := range cuts {
				pt := c.cut(gr.g, hosts)
				out = append(out, digestConfig{
					name: fmt.Sprintf("%s/h%d/%s/dofalse/auto", gr.name, hosts, c.name),
					g:    gr.g, sources: sources, pt: pt,
				})
			}
		}
	}
	return out
}

// digest hashes everything a run may not change: the score bits and the
// paper-model volume (rounds, bytes, messages, per-encoding counts).
func (c digestConfig) digest() string {
	scores, stats := Run(c.g, c.pt, c.sources)
	h := fnv.New64a()
	put := func(x uint64) {
		var b [8]byte
		for i := range b {
			b[i] = byte(x >> (8 * i))
		}
		h.Write(b[:])
	}
	for _, s := range scores {
		put(math.Float64bits(s))
	}
	put(uint64(stats.Rounds))
	put(uint64(stats.Bytes))
	put(uint64(stats.Messages))
	put(uint64(stats.Encoding.Dense))
	put(uint64(stats.Encoding.Sparse))
	put(uint64(stats.Encoding.All))
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestDigestGrid pins SBBC bit for bit across the 30-configuration
// grid against a golden recorded before the sync packs stopped scanning
// shared lists: a change that moves any score bit, round, byte or
// message fails here with the configuration's name. -short runs every
// seventh configuration; -update rewrites the golden.
func TestDigestGrid(t *testing.T) {
	configs := digestConfigs()
	if *update {
		var b strings.Builder
		for _, c := range configs {
			fmt.Fprintf(&b, "%s %s\n", c.name, c.digest())
		}
		if err := os.MkdirAll(filepath.Dir(digestGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digestGolden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(digestGolden)
	if err != nil {
		t.Fatalf("%v (record it with -update)", err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if name, sum, ok := strings.Cut(line, " "); ok {
			want[name] = sum
		}
	}
	if len(want) != len(configs) {
		t.Fatalf("golden holds %d configurations, the grid has %d", len(want), len(configs))
	}
	for i, c := range configs {
		// Stride 7 is coprime to every grid dimension, so the subset still
		// mixes all of them.
		if testing.Short() && i%7 != 0 {
			continue
		}
		if got := c.digest(); got != want[c.name] {
			t.Errorf("%s: digest %s, golden %s", c.name, got, want[c.name])
		}
	}
}
