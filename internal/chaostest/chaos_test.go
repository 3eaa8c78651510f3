// Package chaostest runs the seeded fault-schedule sweep: every engine
// that rides on the dgalois/gluon substrate must produce oracle-exact
// betweenness centrality under every recoverable fault schedule, and
// must terminate with a structured error (never hang) under an
// unrecoverable one. A failing case prints its seed so the exact
// schedule can be replayed with a one-line test filter.
package chaostest

import (
	"errors"
	"math"
	"testing"
	"time"

	"mrbc/internal/brandes"
	"mrbc/internal/dgalois"
	"mrbc/internal/gen"
	"mrbc/internal/gluon"
	"mrbc/internal/graph"
	"mrbc/internal/mrbcdist"
	"mrbc/internal/obs"
	"mrbc/internal/partition"
	"mrbc/internal/sbbc"
	"mrbc/internal/vprog"
)

const (
	sweepSeeds = 200 // full sweep size
	shortSeeds = 16  // -short cap (CI main job; the chaos job runs full)
	maxRate    = 0.20
)

func approxEqual(a, b []float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > tol*(1+math.Abs(a[i])) {
			return false
		}
	}
	return true
}

// engine is one BC implementation under test, wrapped to a common shape.
type engine struct {
	name string
	run  func(g *graph.Graph, pt *partition.Partitioning, sources []uint32, plan *dgalois.FaultPlan) ([]float64, dgalois.Stats, error)
}

var engines = []engine{
	{"mrbc-arb", func(g *graph.Graph, pt *partition.Partitioning, sources []uint32, plan *dgalois.FaultPlan) ([]float64, dgalois.Stats, error) {
		return mrbcdist.RunChecked(g, pt, sources, mrbcdist.Options{BatchSize: 8, Fault: plan})
	}},
	// Software-pipelined batches (small batches so the 16-source jobs
	// really keep two in flight): the reliable transport's retransmission
	// machinery must compose with the per-batch exchange-ID streams.
	{"mrbc-arb-pipe2", func(g *graph.Graph, pt *partition.Partitioning, sources []uint32, plan *dgalois.FaultPlan) ([]float64, dgalois.Stats, error) {
		return mrbcdist.RunChecked(g, pt, sources, mrbcdist.Options{BatchSize: 4, Fault: plan, PipelineDepth: 2})
	}},
	{"sbbc", func(g *graph.Graph, pt *partition.Partitioning, sources []uint32, plan *dgalois.FaultPlan) ([]float64, dgalois.Stats, error) {
		return sbbc.RunOptsChecked(g, pt, sources, sbbc.Options{Fault: plan})
	}},
}

type cut struct {
	name string
	make func(g *graph.Graph, hosts int) *partition.Partitioning
}

var cuts = []cut{
	{"edge-cut", partition.EdgeCut},
	{"cartesian", partition.CartesianCut},
}

var hostCounts = []int{2, 4, 8}

// TestFaultScheduleSweep is the chaos differential test: seeds 0..N-1
// each derive a random recoverable FaultPlan (rates up to 20%) and are
// spread round-robin over engine x partition-policy x host-count, so
// the full sweep covers every cell of the matrix many times over.
func TestFaultScheduleSweep(t *testing.T) {
	graphs := []*graph.Graph{
		gen.RMAT(6, 8, 42),
		gen.RoadGrid(6, 6, 7),
	}
	oracles := make([][]float64, len(graphs))
	sourceSets := make([][]uint32, len(graphs))
	for i, g := range graphs {
		numSrc := 16
		if n := g.NumVertices(); n < numSrc {
			numSrc = n
		}
		sourceSets[i] = brandes.FirstKSources(g, 0, numSrc)
		oracles[i] = brandes.Sequential(g, sourceSets[i])
	}

	seeds := sweepSeeds
	if testing.Short() {
		seeds = shortSeeds
	}
	for seed := 0; seed < seeds; seed++ {
		eng := engines[seed%len(engines)]
		pc := cuts[(seed/len(engines))%len(cuts)]
		hosts := hostCounts[(seed/len(engines)/len(cuts))%len(hostCounts)]
		gi := seed % len(graphs)

		g := graphs[gi]
		plan := dgalois.RandomPlan(uint64(seed), maxRate, hosts)
		pt := pc.make(g, hosts)
		got, stats, err := eng.run(g, pt, sourceSets[gi], plan)
		if err != nil {
			t.Fatalf("seed=%d %s %s hosts=%d: recoverable plan errored: %v",
				seed, eng.name, pc.name, hosts, err)
		}
		if !approxEqual(got, oracles[gi], 1e-9) {
			t.Fatalf("seed=%d %s %s hosts=%d: BC diverged from Brandes oracle",
				seed, eng.name, pc.name, hosts)
		}
		if stats.Faults == nil {
			t.Fatalf("seed=%d: stats carry no fault accounting", seed)
		}
	}
}

// TestFaultVolumeAccounting pins the retry/volume separation: under
// faults the paper-model Bytes/Messages must equal the fault-free run's
// (each logical payload counted once), with all overhead isolated in
// FaultStats.
func TestFaultVolumeAccounting(t *testing.T) {
	g := gen.RMAT(6, 8, 42)
	pt := partition.EdgeCut(g, 4)
	sources := brandes.FirstKSources(g, 0, 16)

	_, clean, err := mrbcdist.RunChecked(g, pt, sources, mrbcdist.Options{BatchSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	plan := &dgalois.FaultPlan{Seed: 99, Drop: 0.15, Dup: 0.1, Corrupt: 0.1, AckDrop: 0.1}
	_, faulty, err := mrbcdist.RunChecked(g, pt, sources, mrbcdist.Options{BatchSize: 8, Fault: plan})
	if err != nil {
		t.Fatal(err)
	}
	if faulty.Bytes != clean.Bytes || faulty.Messages != clean.Messages {
		t.Fatalf("paper-model volume polluted by retries: clean %d B/%d msgs, faulty %d B/%d msgs",
			clean.Bytes, clean.Messages, faulty.Bytes, faulty.Messages)
	}
	if faulty.Faults.RetryMessages == 0 || faulty.Faults.RetryBytes == 0 {
		t.Fatal("faulty run recorded no retries despite 15% drop rate")
	}
}

// TestUnrecoverablePlanErrorsNotHangs drives each engine with a
// permanently stalled host and demands a structured *FaultError within
// a wall-clock budget.
func TestUnrecoverablePlanErrorsNotHangs(t *testing.T) {
	g := gen.RoadGrid(5, 5, 1)
	sources := brandes.FirstKSources(g, 0, 8)
	for _, eng := range engines {
		t.Run(eng.name, func(t *testing.T) {
			plan := &dgalois.FaultPlan{
				Seed:          1,
				DeadlineSteps: 16,
				Stalls:        []dgalois.Stall{{Host: 1, Exchange: 2, Steps: -1}},
			}
			pt := partition.EdgeCut(g, 4)
			done := make(chan error, 1)
			go func() {
				_, _, err := eng.run(g, pt, sources, plan)
				done <- err
			}()
			select {
			case err := <-done:
				var fe *dgalois.FaultError
				if !errors.As(err, &fe) {
					t.Fatalf("got %v, want *dgalois.FaultError", err)
				}
				if fe.Host != 1 {
					t.Fatalf("error implicates host %d, want stalled host 1", fe.Host)
				}
			case <-time.After(60 * time.Second):
				t.Fatal("engine hung on permanently stalled host")
			}
		})
	}
}

// TestVertexProgramsUnderFaults covers the vprog layer's fault path:
// BFS distances computed through the faulty transport must match the
// fault-free run exactly (integer labels, so equality is bitwise).
func TestVertexProgramsUnderFaults(t *testing.T) {
	g := gen.RMAT(7, 8, 11)
	pt := partition.CartesianCut(g, 4)
	prog := vprog.PushProgram{
		Init: func(gid uint32) (uint64, bool) {
			if gid == 0 {
				return 0, true
			}
			return math.MaxUint64, false
		},
		Relax:  func(l uint64) uint64 { return l + 1 },
		Better: func(a, b uint64) bool { return a < b },
	}
	want, _, err := vprog.RunPushPlan(g, pt, prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	seeds := 24
	if testing.Short() {
		seeds = 6
	}
	for seed := 0; seed < seeds; seed++ {
		plan := dgalois.RandomPlan(uint64(1000+seed), maxRate, pt.NumHosts)
		got, stats, err := vprog.RunPushPlan(g, pt, prog, plan)
		if err != nil {
			t.Fatalf("seed=%d: recoverable plan errored: %v", 1000+seed, err)
		}
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("seed=%d: BFS label of vertex %d diverged under faults", 1000+seed, v)
			}
		}
		if stats.Faults == nil {
			t.Fatalf("seed=%d: no fault accounting", 1000+seed)
		}
	}
}

// TestTraceAccountingOracle cross-checks the trace against the stats:
// summing a complete phase-level trace's events must reproduce the
// cluster's Stats exactly — paper-model bytes and messages (from both
// the sender and receiver side), the per-format encoding mix, and
// every transport counter — across engines, pinned wire formats, and
// fault plans.
func TestTraceAccountingOracle(t *testing.T) {
	g := gen.RMAT(6, 8, 42)
	sources := brandes.FirstKSources(g, 0, 16)
	hosts := 4
	encodings := []gluon.Format{gluon.FormatAuto, gluon.FormatDense, gluon.FormatSparse}
	type run struct {
		name string
		do   func(tr *obs.Trace, enc gluon.Format, plan *dgalois.FaultPlan) (dgalois.Stats, error)
	}
	runs := []run{
		{"mrbc-arb", func(tr *obs.Trace, enc gluon.Format, plan *dgalois.FaultPlan) (dgalois.Stats, error) {
			_, s, err := mrbcdist.RunChecked(g, partition.EdgeCut(g, hosts), sources,
				mrbcdist.Options{BatchSize: 8, Encoding: enc, Fault: plan, Trace: tr})
			return s, err
		}},
		{"sbbc", func(tr *obs.Trace, enc gluon.Format, plan *dgalois.FaultPlan) (dgalois.Stats, error) {
			_, s, err := sbbc.RunOptsChecked(g, partition.EdgeCut(g, hosts), sources,
				sbbc.Options{Encoding: enc, Fault: plan, Trace: tr})
			return s, err
		}},
	}
	for _, r := range runs {
		for _, enc := range encodings {
			for _, seed := range []int{-1, 5} { // -1: perfect network
				var plan *dgalois.FaultPlan
				if seed >= 0 {
					plan = dgalois.RandomPlan(uint64(seed), maxRate, hosts)
				}
				tr := obs.NewTrace(1<<18, obs.LevelPhase)
				stats, err := r.do(tr, enc, plan)
				if err != nil {
					t.Fatalf("%s enc=%v seed=%d: %v", r.name, enc, seed, err)
				}
				if tr.Dropped() > 0 {
					t.Fatalf("%s enc=%v seed=%d: trace dropped %d events", r.name, enc, seed, tr.Dropped())
				}
				tot := obs.Sum(tr.Events())
				if tot.PackBytes != stats.Bytes || tot.UnpackBytes != stats.Bytes {
					t.Fatalf("%s enc=%v seed=%d: trace bytes pack=%d unpack=%d, stats %d",
						r.name, enc, seed, tot.PackBytes, tot.UnpackBytes, stats.Bytes)
				}
				if tot.PackMessages != stats.Messages || tot.UnpackMessages != stats.Messages {
					t.Fatalf("%s enc=%v seed=%d: trace messages pack=%d unpack=%d, stats %d",
						r.name, enc, seed, tot.PackMessages, tot.UnpackMessages, stats.Messages)
				}
				if tot.Dense != stats.Encoding.Dense || tot.Sparse != stats.Encoding.Sparse || tot.All != stats.Encoding.All {
					t.Fatalf("%s enc=%v seed=%d: trace format mix %d/%d/%d, stats %d/%d/%d",
						r.name, enc, seed, tot.Dense, tot.Sparse, tot.All,
						stats.Encoding.Dense, stats.Encoding.Sparse, stats.Encoding.All)
				}
				if plan == nil {
					if tot.Retries != 0 || tot.FrameBytes != 0 || tot.Injected != 0 {
						t.Fatalf("%s enc=%v: perfect network produced transport activity: %+v", r.name, enc, tot)
					}
					continue
				}
				f := stats.Faults
				injected := f.Drops + f.Dups + f.Delays + f.Truncations + f.Corruptions + f.Reorders + f.AckDrops
				if tot.Retries != f.RetryMessages || tot.RetryBytes != f.RetryBytes ||
					tot.FrameBytes != f.FrameBytes || tot.AckMessages != f.AckMessages ||
					tot.AckBytes != f.AckBytes || tot.DeliverySteps != f.DeliverySteps ||
					tot.MaxSteps != int64(f.MaxDeliverySteps) || tot.Injected != injected ||
					tot.Stalled != f.StalledSteps {
					t.Fatalf("%s enc=%v seed=%d: transport totals diverged:\n trace %+v\n stats %+v",
						r.name, enc, seed, tot, *f)
				}
			}
		}
	}
}
