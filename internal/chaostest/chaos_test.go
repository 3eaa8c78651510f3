// Package chaostest runs the seeded fault-schedule sweep: every engine
// that rides on the dgalois/gluon substrate, run SPMD over the shipped
// TCP transport with a clusterrun.FaultProxy in front of every listener,
// must produce oracle-exact betweenness centrality under every
// recoverable fault schedule, and must terminate with a structured error
// (never hang) when a host is cut off. A failing case prints its seed so
// the exact schedule can be replayed with a one-line test filter.
package chaostest

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"testing"

	"mrbc/internal/brandes"
	"mrbc/internal/clusterrun"
	"mrbc/internal/dgalois"
	"mrbc/internal/gen"
	"mrbc/internal/gluon"
	"mrbc/internal/graph"
	"mrbc/internal/mrbcdist"
	"mrbc/internal/obs"
	"mrbc/internal/partition"
	"mrbc/internal/sbbc"
)

const sweepSeeds = 200 // full sweep size

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

// job is what a test varies about one engine run. The zero value runs
// in process, untraced.
type job struct {
	transport gluon.Transport
	trace     *obs.Trace
}

// engine is one BC implementation under test, wrapped to a common shape.
type engine struct {
	name string
	run  func(g *graph.Graph, pt *partition.Partitioning, sources []uint32, j job) ([]float64, dgalois.Stats, error)
}

var engines = []engine{
	{"mrbc-arb", func(g *graph.Graph, pt *partition.Partitioning, sources []uint32, j job) ([]float64, dgalois.Stats, error) {
		return mrbcdist.RunChecked(g, pt, sources, mrbcdist.Options{BatchSize: 8,
			Transport: j.transport, Trace: j.trace})
	}},
	// Software-pipelined batches (small batches so the 16-source jobs
	// really keep two in flight): retransmission must compose with the
	// per-batch exchange-ID streams.
	{"mrbc-arb-pipe2", func(g *graph.Graph, pt *partition.Partitioning, sources []uint32, j job) ([]float64, dgalois.Stats, error) {
		return mrbcdist.RunChecked(g, pt, sources, mrbcdist.Options{BatchSize: 4, PipelineDepth: 2,
			Transport: j.transport, Trace: j.trace})
	}},
	{"sbbc", func(g *graph.Graph, pt *partition.Partitioning, sources []uint32, j job) ([]float64, dgalois.Stats, error) {
		return sbbc.RunOptsChecked(g, pt, sources, sbbc.Options{
			Transport: j.transport, Trace: j.trace})
	}},
}

// overMesh adapts an engine run to mesh.run: host h runs over its own
// endpoint, traced into traces[h] when traces is non-nil.
func overMesh(eng engine, g *graph.Graph, pt *partition.Partitioning, sources []uint32, traces []*obs.Trace) func(h int, tr gluon.Transport) ([]float64, dgalois.Stats, error) {
	return func(h int, tr gluon.Transport) ([]float64, dgalois.Stats, error) {
		j := job{transport: tr}
		if traces != nil {
			j.trace = traces[h]
		}
		return eng.run(g, pt, sources, j)
	}
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
// each derive seeded proxy schedules and are spread round-robin over
// engine x partition-policy x host-count, so the full sweep covers every
// cell of the matrix many times over and -short covers each cell once.
// Every seed must have had at least one fault applied, so the sweep
// cannot pass on a clean network.
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
		seeds = len(engines) * len(cuts) * len(hostCounts)
	}
	for seed := 0; seed < seeds; seed++ {
		eng := engines[seed%len(engines)]
		pc := cuts[(seed/len(engines))%len(cuts)]
		hosts := hostCounts[(seed/len(engines)/len(cuts))%len(hostCounts)]
		gi := seed % len(graphs)

		g := graphs[gi]
		pt := pc.make(g, hosts)
		m := newMesh(t, hosts, faultPlans(uint64(seed)*0x9e3779b9+1, hosts))
		r := m.run(t, overMesh(eng, g, pt, sourceSets[gi], nil))
		m.close()
		cell := fmt.Sprintf("seed=%d %s %s hosts=%d", seed, eng.name, pc.name, hosts)
		r.requireOK(t, cell)
		if !approxEqual(r.scores, oracles[gi], 1e-9) {
			t.Fatalf("%s: BC diverged from Brandes oracle", cell)
		}
		if r.faults == 0 {
			t.Fatalf("%s: the proxies applied no fault", cell)
		}
	}
}

// TestFaultVolumeAccounting pins the retry/volume separation: under
// faults the paper-model Bytes/Messages, summed over the hosts, must
// equal the in-process clean run's (each logical payload counted once),
// while the retransmissions show only in the transport's ChannelStats.
func TestFaultVolumeAccounting(t *testing.T) {
	const hosts = 4
	g := gen.RMAT(6, 8, 42)
	pt := partition.EdgeCut(g, hosts)
	sources := brandes.FirstKSources(g, 0, 16)
	eng := engines[0]

	_, clean, err := eng.run(g, pt, sources, job{})
	if err != nil {
		t.Fatal(err)
	}
	m := newMesh(t, hosts, faultPlans(99, hosts))
	r := m.run(t, overMesh(eng, g, pt, sources, nil))
	r.requireOK(t, "faulted run")
	var faulty dgalois.Stats
	var net gluon.ChannelStats
	for h := range r.stats {
		faulty.Bytes += r.stats[h].Bytes
		faulty.Messages += r.stats[h].Messages
		net.Add(r.net[h])
	}
	if faulty.Bytes != clean.Bytes || faulty.Messages != clean.Messages {
		t.Fatalf("paper-model volume polluted by retries: clean %d B/%d msgs, faulty %d B/%d msgs",
			clean.Bytes, clean.Messages, faulty.Bytes, faulty.Messages)
	}
	if r.faults == 0 || net.Retries == 0 {
		t.Fatalf("the proxies applied %d faults and the mesh retransmitted %d records: want both > 0", r.faults, net.Retries)
	}
}

// TestUnrecoverablePlanErrorsNotHangs cuts host 1 off from every peer
// for good and demands, from each engine, a structured *FaultError
// naming host 1 on every surviving host, within the mesh's wall budget.
func TestUnrecoverablePlanErrorsNotHangs(t *testing.T) {
	const hosts, victim = 4, 1
	g := gen.RoadGrid(5, 5, 1)
	pt := partition.EdgeCut(g, hosts)
	sources := brandes.FirstKSources(g, 0, 8)
	for _, eng := range engines {
		t.Run(eng.name, func(t *testing.T) {
			m := newMesh(t, hosts, clusterrun.SeverPlans(hosts, victim))
			r := m.run(t, overMesh(eng, g, pt, sources, nil))
			if r.faults == 0 {
				t.Fatal("the proxies severed nothing")
			}
			for h, err := range r.errs {
				if h == victim {
					continue
				}
				var fe *dgalois.FaultError
				if !errors.As(err, &fe) {
					t.Fatalf("host %d: got %v, want *dgalois.FaultError", h, err)
				}
				if fe.Host != victim {
					t.Fatalf("host %d: error implicates host %d, want severed host %d: %v", h, fe.Host, victim, fe)
				}
			}
		})
	}
}

// TestTraceAccountingOracle cross-checks the trace against the stats:
// summing a complete phase-level trace's events must reproduce the
// cluster's Stats exactly — paper-model bytes and messages (from both
// the sender and receiver side) and the per-format encoding mix, of
// which at least two formats must occur — across engines, in process
// and over a faulted TCP mesh. Over the mesh a host's traced retries are
// at most its transport's: a retransmission after the host's last
// exchange event is attributed to none.
func TestTraceAccountingOracle(t *testing.T) {
	g := gen.RMAT(6, 8, 42)
	sources := brandes.FirstKSources(g, 0, 16)
	const hosts = 4
	pt := partition.EdgeCut(g, hosts)
	check := func(what string, tot obs.Totals, stats dgalois.Stats) {
		t.Helper()
		if tot.PackBytes != stats.Bytes || tot.UnpackBytes != stats.Bytes {
			t.Fatalf("%s: trace bytes pack=%d unpack=%d, stats %d", what, tot.PackBytes, tot.UnpackBytes, stats.Bytes)
		}
		if tot.PackMessages != stats.Messages || tot.UnpackMessages != stats.Messages {
			t.Fatalf("%s: trace messages pack=%d unpack=%d, stats %d", what, tot.PackMessages, tot.UnpackMessages, stats.Messages)
		}
		if tot.Dense != stats.Encoding.Dense || tot.Sparse != stats.Encoding.Sparse || tot.All != stats.Encoding.All {
			t.Fatalf("%s: trace format mix %d/%d/%d, stats %d/%d/%d", what, tot.Dense, tot.Sparse, tot.All,
				stats.Encoding.Dense, stats.Encoding.Sparse, stats.Encoding.All)
		}
		formats := 0
		for _, n := range []int64{tot.Dense, tot.Sparse, tot.All} {
			if n > 0 {
				formats++
			}
		}
		if formats < 2 {
			t.Fatalf("%s: format mix %d/%d/%d uses %d format(s), want at least 2", what, tot.Dense, tot.Sparse, tot.All, formats)
		}
	}
	for _, eng := range []engine{engines[0], engines[2]} { // mrbc-arb, sbbc
		what := eng.name

		tr := obs.NewTrace(1<<18, obs.LevelPhase)
		_, stats, err := eng.run(g, pt, sources, job{trace: tr})
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if tr.Dropped() > 0 {
			t.Fatalf("%s: trace dropped %d events", what, tr.Dropped())
		}
		tot := obs.Sum(tr.Events())
		check(what, tot, stats)
		if tot.Retries != 0 {
			t.Fatalf("%s: perfect network produced transport activity: %+v", what, tot)
		}

		what += " over faulted TCP"
		traces := make([]*obs.Trace, hosts)
		for h := range traces {
			traces[h] = obs.NewTrace(1<<18, obs.LevelPhase)
		}
		m := newMesh(t, hosts, faultPlans(5, hosts))
		r := m.run(t, overMesh(eng, g, pt, sources, traces))
		m.close()
		r.requireOK(t, what)
		if r.faults == 0 {
			t.Fatalf("%s: the proxies applied no fault", what)
		}
		var all []obs.Event
		stats = dgalois.Stats{}
		for h, tr := range traces {
			if tr.Dropped() > 0 {
				t.Fatalf("%s: host %d trace dropped %d events", what, h, tr.Dropped())
			}
			events := tr.Events()
			if retries := obs.Sum(events).Retries; retries > r.net[h].Retries {
				t.Fatalf("%s: host %d traced %d retries, its transport made %d", what, h, retries, r.net[h].Retries)
			}
			all = append(all, events...)
			stats.Bytes += r.stats[h].Bytes
			stats.Messages += r.stats[h].Messages
			stats.Encoding.Add(r.stats[h].Encoding)
		}
		check(what, obs.Sum(all), stats)
	}
}

// TestFaultsPreserveModelStream runs the tracetest golden workload as
// two SPMD hosts, over a clean mesh and through fault proxies: the
// transport may retransmit and reorder at will, but each host's
// paper-model event stream (everything except transport events) must
// stay byte-identical to its clean run's.
func TestFaultsPreserveModelStream(t *testing.T) {
	const hosts = 2
	g := gen.RMAT(5, 8, 3)
	pt := partition.CartesianCut(g, hosts)
	sources := brandes.FirstKSources(g, 0, 8)
	golden := engine{"mrbc-arb-4", func(g *graph.Graph, pt *partition.Partitioning, sources []uint32, j job) ([]float64, dgalois.Stats, error) {
		return mrbcdist.RunChecked(g, pt, sources, mrbcdist.Options{BatchSize: 4, Transport: j.transport, Trace: j.trace})
	}}
	streams := func(plans []clusterrun.ProxyPlan) ([][]byte, int) {
		traces := make([]*obs.Trace, hosts)
		for h := range traces {
			traces[h] = obs.NewTrace(1<<16, obs.LevelDetail)
		}
		m := newMesh(t, hosts, plans)
		r := m.run(t, overMesh(golden, g, pt, sources, traces))
		m.close()
		r.requireOK(t, "golden workload")
		out := make([][]byte, hosts)
		for h, tr := range traces {
			if tr.Dropped() > 0 {
				t.Fatalf("host %d trace dropped %d events", h, tr.Dropped())
			}
			var buf bytes.Buffer
			if err := obs.WriteCanonical(&buf, obs.ModelEvents(tr.Events())); err != nil {
				t.Fatal(err)
			}
			out[h] = buf.Bytes()
		}
		return out, r.faults
	}
	clean, _ := streams(nil)
	faulty, faults := streams(faultPlans(11, hosts))
	if faults == 0 {
		t.Fatal("the proxies applied no fault")
	}
	for h := range clean {
		if !bytes.Equal(faulty[h], clean[h]) {
			t.Fatalf("host %d: paper-model event stream changed under faults", h)
		}
	}
}
