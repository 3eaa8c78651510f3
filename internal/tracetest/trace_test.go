package tracetest

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"mrbc/internal/brandes"
	"mrbc/internal/gen"
	"mrbc/internal/graph"
	"mrbc/internal/mrbcdist"
	"mrbc/internal/obs"
	"mrbc/internal/partition"
	"mrbc/internal/sbbc"
)

var update = flag.Bool("update", false, "rewrite the golden and perturbed trace fixtures")

// traceCap comfortably holds every event of the small graphs below;
// each test asserts nothing was dropped, so a failure here is loud.
const traceCap = 1 << 16

func maxFiniteDistance(g *graph.Graph, sources []uint32) int {
	var h uint32
	for _, s := range sources {
		for _, d := range g.BFS(s) {
			if d != graph.InfDist && d > h {
				h = d
			}
		}
	}
	return int(h)
}

func requireComplete(t *testing.T, tr *obs.Trace) []obs.Event {
	t.Helper()
	if tr.Dropped() > 0 {
		t.Fatalf("trace ring dropped %d events; raise traceCap", tr.Dropped())
	}
	return tr.Events()
}

// tracedEngine runs one BC engine with a detail-level trace attached
// and returns the recorded events.
type tracedEngine struct {
	name string
	run  func(t *testing.T, g *graph.Graph, pt *partition.Partitioning, sources []uint32, tr *obs.Trace)
}

func mrbcRunner(batch int) func(t *testing.T, g *graph.Graph, pt *partition.Partitioning, sources []uint32, tr *obs.Trace) {
	return func(t *testing.T, g *graph.Graph, pt *partition.Partitioning, sources []uint32, tr *obs.Trace) {
		t.Helper()
		_, _, err := mrbcdist.RunChecked(g, pt, sources, mrbcdist.Options{
			BatchSize: batch, Trace: tr,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func sbbcRunner() func(t *testing.T, g *graph.Graph, pt *partition.Partitioning, sources []uint32, tr *obs.Trace) {
	return func(t *testing.T, g *graph.Graph, pt *partition.Partitioning, sources []uint32, tr *obs.Trace) {
		t.Helper()
		_, _, err := sbbc.RunOptsChecked(g, pt, sources, sbbc.Options{Trace: tr})
		if err != nil {
			t.Fatal(err)
		}
	}
}

var tracedEngines = []tracedEngine{
	{"mrbc-arb", mrbcRunner(8)},
	{"sbbc", sbbcRunner()},
}

// TestLemma8RoundBounds strengthens the aggregate round-count test to
// per-round granularity: on a detail trace, every batch must finish in
// fwd+back+1 ≤ 2(k+H)+1 rounds, and every forward synchronization must
// land in a round ≤ k+H of its batch (the send rule of Algorithm 3,
// Lemma 8). Both sync modes and the SBBC baseline are covered; SBBC's
// per-source "batches" have k = 1.
func TestLemma8RoundBounds(t *testing.T) {
	g := gen.WebCrawl(6, 6, 2, 15, 7)
	sources := brandes.FirstKSources(g, 0, 16)
	h := maxFiniteDistance(g, sources)
	for _, eng := range tracedEngines {
		for _, pc := range []struct {
			name string
			make func(*graph.Graph, int) *partition.Partitioning
		}{{"edge-cut", partition.EdgeCut}, {"cartesian", partition.CartesianCut}} {
			t.Run(eng.name+"/"+pc.name, func(t *testing.T) {
				tr := obs.NewTrace(traceCap, obs.LevelDetail)
				eng.run(t, g, pc.make(g, 4), sources, tr)
				events := requireComplete(t, tr)
				if err := obs.CheckRoundBounds(events, h); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestBackwardReversalSymmetry checks Algorithm 5's schedule against
// the trace: every (vertex, source) pair synchronized forward in round
// τ of a batch with forward span R synchronizes backward exactly once,
// in round R − τ + 1.
func TestBackwardReversalSymmetry(t *testing.T) {
	g := gen.RMAT(6, 8, 42)
	sources := brandes.FirstKSources(g, 0, 16)
	for _, eng := range tracedEngines {
		t.Run(eng.name, func(t *testing.T) {
			tr := obs.NewTrace(traceCap, obs.LevelDetail)
			eng.run(t, g, partition.EdgeCut(g, 4), sources, tr)
			if err := obs.CheckReversal(requireComplete(t, tr)); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// goldenEvents produces the canonical reference trace: a fixed small
// graph through the arbitration-mode engine.
func goldenEvents(t *testing.T) []obs.Event {
	t.Helper()
	g := gen.RMAT(5, 8, 3)
	pt := partition.CartesianCut(g, 2)
	sources := brandes.FirstKSources(g, 0, 8)
	tr := obs.NewTrace(traceCap, obs.LevelDetail)
	mrbcRunner(4)(t, g, pt, sources, tr)
	return requireComplete(t, tr)
}

func canonicalJSONL(t *testing.T, events []obs.Event) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := obs.WriteCanonical(&buf, events); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGoldenTraceDeterminism pins the canonical trace of a fixed run:
// byte-identical at GOMAXPROCS 1, 2, 4, 8 (which size the cluster's
// worker pool) and equal to the checked-in fixture (regenerate with
// -update).
func TestGoldenTraceDeterminism(t *testing.T) {
	golden := filepath.Join("testdata", "golden_trace.jsonl")
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	base := canonicalJSONL(t, goldenEvents(t))
	for _, procs := range []int{2, 4, 8} {
		runtime.GOMAXPROCS(procs)
		if got := canonicalJSONL(t, goldenEvents(t)); !bytes.Equal(got, base) {
			t.Fatalf("canonical trace at GOMAXPROCS=%d differs from the GOMAXPROCS=1 trace", procs)
		}
	}
	if *update {
		if err := os.WriteFile(golden, base, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden fixture (run with -update to create): %v", err)
	}
	if !bytes.Equal(base, want) {
		t.Fatalf("canonical trace diverged from %s (%d vs %d bytes); run with -update if the change is intended",
			golden, len(base), len(want))
	}
}

// TestPerturbedTraceFixtureFails is the harness's negative control: a
// checked-in trace with one forward send pushed past its batch's
// forward span and one backward send shifted off its reversal round
// must fail both checkers. Regenerated with -update from the golden
// workload.
func TestPerturbedTraceFixtureFails(t *testing.T) {
	perturbed := filepath.Join("testdata", "perturbed_trace.jsonl")
	if *update {
		events := obs.Canonical(goldenEvents(t))
		brokeFwd, brokeBack := false, false
		for i := range events {
			if events[i].Kind != obs.KindSend {
				continue
			}
			if !brokeFwd && events[i].Dir == obs.DirForward {
				events[i].Round = 999 // past any batch's forward span
				brokeFwd = true
			} else if !brokeBack && events[i].Dir == obs.DirBackward {
				events[i].Round++ // off the R − τ + 1 reversal round
				brokeBack = true
			}
		}
		if !brokeFwd || !brokeBack {
			t.Fatal("golden workload yielded no send events to perturb")
		}
		f, err := os.Create(perturbed)
		if err != nil {
			t.Fatal(err)
		}
		if err := obs.WriteJSONL(f, events); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	f, err := os.Open(perturbed)
	if err != nil {
		t.Fatalf("missing perturbed fixture (run with -update to create): %v", err)
	}
	defer f.Close()
	events, err := obs.ReadEvents(f)
	if err != nil {
		t.Fatal(err)
	}
	// A generous H: the round-bound failure must come from the batch's
	// own recorded span, not from a tight H estimate.
	if err := obs.CheckRoundBounds(events, 64); err == nil {
		t.Fatal("CheckRoundBounds accepted the perturbed trace")
	} else {
		t.Logf("round bounds correctly rejected: %v", err)
	}
	if err := obs.CheckReversal(events); err == nil {
		t.Fatal("CheckReversal accepted the perturbed trace")
	} else {
		t.Logf("reversal correctly rejected: %v", err)
	}
}

// TestSyncModesShareRoundStructure checks Lemma 8 and reversal symmetry
// where arbitration does the most work: a road grid in batches of 6 over
// an edge cut, so distance ties between sources are common and losing
// proxies' schedules shift.
func TestSyncModesShareRoundStructure(t *testing.T) {
	g := gen.RoadGrid(6, 6, 7)
	sources := brandes.FirstKSources(g, 0, 12)
	h := maxFiniteDistance(g, sources)
	pt := partition.EdgeCut(g, 4)
	tr := obs.NewTrace(traceCap, obs.LevelDetail)
	mrbcRunner(6)(t, g, pt, sources, tr)
	events := requireComplete(t, tr)
	if err := obs.CheckRoundBounds(events, h); err != nil {
		t.Fatal(err)
	}
	if err := obs.CheckReversal(events); err != nil {
		t.Fatal(err)
	}
}
