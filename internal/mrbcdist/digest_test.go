package mrbcdist

import (
	"bufio"
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
// hosts × edge/cartesian cut × pipeline depth 1/2. The names keep the
// "sync0" and "ew0" segments of the golden's recording, whose sync1 half
// left with CandidateSync and whose ew3 half left with the intra-host
// worker pool.
type digestConfig struct {
	name    string
	g       *graph.Graph
	sources []uint32
	pt      *partition.Partitioning
	opts    Options
}

func digestConfigs() []digestConfig {
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"rmat", gen.RMAT(9, 8, 5)},
		{"kron", gen.Kronecker(9, 6, 6)},
		{"road", gen.RoadGrid(16, 16, 7)},
		{"web", gen.WebCrawl(7, 6, 3, 12, 8)},
		{"er", gen.ErdosRenyi(400, 2000, 9)},
	}
	cuts := []struct {
		name string
		cut  func(*graph.Graph, int) *partition.Partitioning
	}{{"edge", partition.EdgeCut}, {"cart", partition.CartesianCut}}
	var out []digestConfig
	for _, gr := range graphs {
		// 40 sources in batches of 16: two full batches and a short one,
		// so a reused engine also runs at a stride below its capacity.
		sources := brandes.FirstKSources(gr.g, 0, 40)
		for _, hosts := range []int{2, 4, 8} {
			for _, c := range cuts {
				pt := c.cut(gr.g, hosts)
				for _, depth := range []int{1, 2} {
					out = append(out, digestConfig{
						name: fmt.Sprintf("%s/h%d/%s/sync0/ew0/d%d",
							gr.name, hosts, c.name, depth),
						g: gr.g, sources: sources, pt: pt,
						opts: Options{BatchSize: 16, PipelineDepth: depth},
					})
				}
			}
		}
	}
	return out
}

// digest hashes everything a run may not change, as two columns: the
// score bits, and the paper-model volume (rounds, bytes, messages,
// per-encoding counts). A change meant to send less moves only the
// second.
func (c digestConfig) digest() (scores, volume string) {
	sc, stats := Run(c.g, c.pt, c.sources, c.opts)
	sum := func(xs ...uint64) string {
		h := fnv.New64a()
		var b [8]byte
		for _, x := range xs {
			for i := range b {
				b[i] = byte(x >> (8 * i))
			}
			h.Write(b[:])
		}
		return fmt.Sprintf("%016x", h.Sum64())
	}
	bits := make([]uint64, len(sc))
	for i, s := range sc {
		bits[i] = math.Float64bits(s)
	}
	return sum(bits...), sum(uint64(stats.Rounds), uint64(stats.Bytes), uint64(stats.Messages),
		uint64(stats.Encoding.Dense), uint64(stats.Encoding.Sparse), uint64(stats.Encoding.All))
}

// digestLine is one configuration's golden line.
type digestLine struct{ scores, volume string }

func readDigestGolden(t *testing.T) map[string]digestLine {
	f, err := os.Open(digestGolden)
	if err != nil {
		t.Fatalf("%v (record it with -update)", err)
	}
	defer f.Close()
	want := map[string]digestLine{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if fields := strings.Fields(sc.Text()); len(fields) == 3 {
			want[fields[0]] = digestLine{fields[1], fields[2]}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestDigestGrid pins distributed MRBC bit for bit across the
// 60-configuration grid against a golden recorded before the engine's
// label layout was rebuilt: an engine change that moves any score bit,
// round, byte or message fails here with the configuration's name and
// the column that moved. Each line is "name scores volume"; a change
// that only sends less re-records the volume column and must leave the
// score column byte-identical. -short runs every seventh configuration;
// -update rewrites the golden.
func TestDigestGrid(t *testing.T) {
	configs := digestConfigs()
	if *update {
		var b strings.Builder
		for _, c := range configs {
			scores, volume := c.digest()
			fmt.Fprintf(&b, "%s %s %s\n", c.name, scores, volume)
		}
		if err := os.MkdirAll(filepath.Dir(digestGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digestGolden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := readDigestGolden(t)
	if len(want) != len(configs) {
		t.Fatalf("golden holds %d configurations, the grid has %d", len(want), len(configs))
	}
	for i, c := range configs {
		// Stride 7 is coprime to every grid dimension, so the subset still
		// mixes all of them.
		if testing.Short() && i%7 != 0 {
			continue
		}
		scores, volume := c.digest()
		if w := want[c.name]; scores != w.scores {
			t.Errorf("%s: score digest %s, golden %s", c.name, scores, w.scores)
		} else if volume != w.volume {
			t.Errorf("%s: volume digest %s, golden %s", c.name, volume, w.volume)
		}
	}
}
