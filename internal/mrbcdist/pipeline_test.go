package mrbcdist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"net"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"mrbc/internal/brandes"
	"mrbc/internal/dgalois"
	"mrbc/internal/elastic"
	"mrbc/internal/gen"
	"mrbc/internal/gluon"
	"mrbc/internal/graph"
	"mrbc/internal/obs"
	"mrbc/internal/partition"
)

// modelStream projects a trace onto the depth-invariant model events:
// the per-(vertex, source) send events and the per-batch summaries,
// both tagged with batch-relative rounds. Phase events carry the
// clusters' global round/seq numbering, which legitimately differs
// between pipeline depths (rounds of concurrent batches interleave),
// so they are excluded from the cross-depth comparison.
func modelStream(events []obs.Event) []obs.Event {
	var out []obs.Event
	for _, e := range obs.Canonical(events) {
		if e.Kind == obs.KindSend || e.Kind == obs.KindBatch {
			out = append(out, e)
		}
	}
	return out
}

// TestPipelineDepthsBitwiseAgree is the determinism contract of the
// software-pipelined batch runner: for every cut and engine
// configuration, depths 1, 2, and 4 must produce bit-identical scores,
// identical paper-model volume, and an identical model-event stream
// (sends + batch summaries) — the only thing the depth may change is
// wall-clock interleaving.
func TestPipelineDepthsBitwiseAgree(t *testing.T) {
	g := gen.RMAT(7, 8, 3)
	sources := brandes.FirstKSources(g, 0, 32) // BatchSize 8 -> 4 batches
	oracle := brandes.Sequential(g, sources)

	cases := []struct {
		name string
		opts Options
		pt   *partition.Partitioning
	}{
		{"arb/edge-cut", Options{BatchSize: 8}, partition.EdgeCut(g, 4)},
		{"arb/cartesian", Options{BatchSize: 8}, partition.CartesianCut(g, 4)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var (
				refScores []float64
				refStats  dgalois.Stats
				refModel  []obs.Event
			)
			for _, depth := range []int{1, 2, 4} {
				opts := tc.opts
				opts.PipelineDepth = depth
				opts.Trace = obs.NewTrace(1<<16, obs.LevelDetail) // about 12 000 events
				scores, stats := Run(g, tc.pt, sources, opts)
				if opts.Trace.Dropped() > 0 {
					t.Fatalf("depth %d: trace dropped %d events", depth, opts.Trace.Dropped())
				}
				if !approxEqual(scores, oracle, 1e-9) {
					t.Fatalf("depth %d: scores diverged from Brandes oracle", depth)
				}
				model := modelStream(opts.Trace.Events())
				if depth == 1 {
					refScores, refStats, refModel = scores, stats, model
					continue
				}
				for v := range scores {
					if math.Float64bits(scores[v]) != math.Float64bits(refScores[v]) {
						t.Fatalf("depth %d: score of vertex %d = %x, depth 1 = %x",
							depth, v, math.Float64bits(scores[v]), math.Float64bits(refScores[v]))
					}
				}
				if stats.Bytes != refStats.Bytes || stats.Messages != refStats.Messages || stats.Rounds != refStats.Rounds {
					t.Fatalf("depth %d: volume %d B / %d msgs / %d rounds, depth 1: %d / %d / %d",
						depth, stats.Bytes, stats.Messages, stats.Rounds,
						refStats.Bytes, refStats.Messages, refStats.Rounds)
				}
				if len(model) != len(refModel) {
					t.Fatalf("depth %d: %d model events, depth 1: %d", depth, len(model), len(refModel))
				}
				for i := range model {
					if model[i] != refModel[i] {
						t.Fatalf("depth %d: model event %d = %+v, depth 1 = %+v",
							depth, i, model[i], refModel[i])
					}
				}
			}
		})
	}
}

// TestPipelineDepthClamped pins the clamp: a depth larger than the
// batch count degrades to one coroutine per batch, and depth 0/1 run
// the serial loop (covered implicitly by every existing test, asserted
// here for the boundary values).
func TestPipelineDepthClamped(t *testing.T) {
	g := gen.RoadGrid(6, 6, 5)
	pt := partition.EdgeCut(g, 2)
	sources := brandes.FirstKSources(g, 0, 10)
	oracle := brandes.Sequential(g, sources)
	for _, depth := range []int{0, 1, 3, 64} {
		got, _ := Run(g, pt, sources, Options{BatchSize: 4, PipelineDepth: depth})
		if !approxEqual(got, oracle, 1e-9) {
			t.Fatalf("depth %d: scores diverged from oracle", depth)
		}
	}
}

// TestPipelineHiddenTimeAccounted checks that a pipelined run reports
// overlap: with depth >= 2 some exchange completions happen after
// other batches computed in between, so Stats.HiddenTime and the
// exchange events' HiddenNs must be populated and consistent.
func TestPipelineHiddenTimeAccounted(t *testing.T) {
	g := gen.RMAT(7, 8, 3)
	pt := partition.EdgeCut(g, 4)
	sources := brandes.FirstKSources(g, 0, 32)

	tr := obs.NewTrace(1<<18, obs.LevelPhase)
	_, serial := Run(g, pt, sources, Options{BatchSize: 8, Trace: tr})
	if serial.HiddenTime != 0 {
		t.Fatalf("serial run reported %v hidden exchange time", serial.HiddenTime)
	}
	var serialHidden int64
	for _, e := range tr.Events() {
		serialHidden += e.HiddenNs
	}
	if serialHidden != 0 {
		t.Fatalf("serial trace carries %d ns of HiddenNs", serialHidden)
	}

	tr = obs.NewTrace(1<<18, obs.LevelPhase)
	_, piped := Run(g, pt, sources, Options{BatchSize: 8, PipelineDepth: 2, Trace: tr})
	if piped.HiddenTime <= 0 {
		t.Fatalf("pipelined run hid no exchange time (HiddenTime = %v)", piped.HiddenTime)
	}
	var traceHidden int64
	for _, e := range tr.Events() {
		traceHidden += e.HiddenNs
	}
	if traceHidden != int64(piped.HiddenTime) {
		t.Fatalf("trace HiddenNs sum %d != Stats.HiddenTime %d", traceHidden, int64(piped.HiddenTime))
	}
}

// tcpViews builds an N-host localhost TCP mesh (listeners first so the
// address book is complete before any transport dials).
func tcpViews(t testing.TB, hosts int) []gluon.Transport {
	t.Helper()
	return tcpViewsOpts(t, hosts, gluon.TCPOptions{})
}

// tcpViewsOpts is tcpViews with the transports' options.
func tcpViewsOpts(t testing.TB, hosts int, opts gluon.TCPOptions) []gluon.Transport {
	t.Helper()
	lns := make([]net.Listener, hosts)
	addrs := make([]string, hosts)
	for h := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen host %d: %v", h, err)
		}
		lns[h] = ln
		addrs[h] = ln.Addr().String()
	}
	views := make([]gluon.Transport, hosts)
	for h := range views {
		tr, err := gluon.NewTCPTransport(h, addrs, lns[h], opts)
		if err != nil {
			t.Fatalf("transport host %d: %v", h, err)
		}
		views[h] = tr
	}
	return views
}

// runTCPSPMD executes one SPMD cluster run (one goroutine per host
// over a real localhost TCP mesh) and returns the elementwise sum of
// the per-host score vectors. The vectors are disjoint by master
// ownership, so the sum is exact.
func runTCPSPMD(t testing.TB, g *graph.Graph, pt *partition.Partitioning, sources []uint32, opts Options) []float64 {
	t.Helper()
	views := tcpViews(t, pt.NumHosts)
	defer closeViews(views)
	return runSPMD(t, views, g, pt, sources, opts)
}

func closeViews(views []gluon.Transport) {
	for _, v := range views {
		v.Close()
	}
}

// runSPMD is runTCPSPMD over a mesh the caller owns.
func runSPMD(t testing.TB, views []gluon.Transport, g *graph.Graph, pt *partition.Partitioning, sources []uint32, opts Options) []float64 {
	t.Helper()
	hosts := pt.NumHosts
	perHost := make([][]float64, hosts)
	errs := make([]error, hosts)
	var wg sync.WaitGroup
	for h := 0; h < hosts; h++ {
		wg.Add(1)
		go func(h int) {
			defer wg.Done()
			o := opts
			o.Transport = views[h]
			perHost[h], _, errs[h] = RunChecked(g, pt, sources, o)
		}(h)
	}
	wg.Wait()
	for h, err := range errs {
		if err != nil {
			t.Fatalf("host %d: %v", h, err)
		}
	}
	sum := make([]float64, g.NumVertices())
	for _, scores := range perHost {
		for v, s := range scores {
			sum[v] += s
		}
	}
	return sum
}

// TestPipelineTCPSPMD runs the pipelined engine as a real 4-process
// SPMD cluster over localhost TCP: depth 2 must agree bit for bit with
// the depth-1 run on the same transport and match the Brandes oracle.
// This exercises the cluster's one exchange counter on the wire:
// concurrently-open exchanges of different batches must land in the
// right transport boxes regardless of arrival order.
func TestPipelineTCPSPMD(t *testing.T) {
	if testing.Short() {
		t.Skip("localhost TCP cluster; skipped in -short")
	}
	g := gen.RMAT(6, 8, 1)
	pt := partition.EdgeCut(g, 4)
	sources := brandes.FirstKSources(g, 0, 16) // BatchSize 4 -> 4 batches
	oracle := brandes.Sequential(g, sources)

	serial := runTCPSPMD(t, g, pt, sources, Options{BatchSize: 4, PipelineDepth: 1})
	piped := runTCPSPMD(t, g, pt, sources, Options{BatchSize: 4, PipelineDepth: 2})
	if !approxEqual(piped, oracle, 1e-9) {
		t.Fatal("pipelined TCP SPMD scores diverged from Brandes oracle")
	}
	for v := range piped {
		if math.Float64bits(piped[v]) != math.Float64bits(serial[v]) {
			t.Fatalf("vertex %d: depth-2 score %x != depth-1 score %x over TCP",
				v, math.Float64bits(piped[v]), math.Float64bits(serial[v]))
		}
	}
}

// benchRunTCP times benchmark/'s rmat_tcp_h4 job at seed 1 — four SPMD
// goroutines over a loopback mesh, the way four bcd processes would
// run it — with the mesh brought up (one all-reduce dials every peer
// both ways) and closed outside the timer. With BenchmarkRunMemSameJob
// it gives the TCP/in-process ratio without the harness:
// `go test -run '^$' -bench 'RunTCP|RunMemSameJob' -cpuprofile cpu.out
// ./internal/mrbcdist`. records/op is every record the run's mesh wrote:
// data, empty markers and standalone acks, from the channel Stats;
// data/op is the data records alone. Records less standalone acks are
// fixed by the exchange count and each exchange's link set (forward
// reduces on the partners in round 1 and on the proposal links after
// it, forward broadcasts — which relay the vote, so the idle round has
// one too — on the partners, backward reduces and broadcasts on their
// own sets). On the 2×2 Cartesian cut that is 12 644 records and 9 152
// data/op: 3 492 markers, where voting on every link wrote 17 036 and
// sending every backward exchange on all partner links 21 684 as well.
// records/op reads 12 648: four standalone acks, one each way on the two
// diagonal links, answer the bring-up all-reduce's records there, which
// no data record crosses to carry them back. A slow run, an owed ack
// aging into a tick flush elsewhere too, reads more.
func benchRunTCP(b *testing.B, depth int) {
	if testing.Short() {
		b.Skip("whole-run benchmark over localhost TCP")
	}
	g, pt, sources := tcpBenchJob()
	records := func(views []gluon.Transport) (n, data int64) {
		for h, v := range views {
			for to := range views {
				st := v.Stats(h, to)
				n += st.Messages + st.Control
				data += st.Messages
			}
		}
		return n, data
	}
	var total, totalData int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		views := tcpViews(b, pt.NumHosts)
		var wg sync.WaitGroup
		for h, v := range views {
			wg.Add(1)
			go func(h int, v gluon.Transport) {
				defer wg.Done()
				if _, err := v.AllReduce(h, 0, gluon.ReduceSum); err != nil {
					b.Errorf("connect host %d: %v", h, err)
				}
			}(h, v)
		}
		wg.Wait()
		before, beforeData := records(views)
		b.StartTimer()
		runSPMD(b, views, g, pt, sources, Options{BatchSize: 4, PipelineDepth: depth})
		b.StopTimer()
		after, afterData := records(views)
		total += after - before
		totalData += afterData - beforeData
		closeViews(views)
		b.StartTimer()
	}
	b.ReportMetric(float64(total)/float64(b.N), "records/op")
	b.ReportMetric(float64(totalData)/float64(b.N), "data/op")
}

func tcpBenchJob() (*graph.Graph, *partition.Partitioning, []uint32) {
	g := gen.RMAT(11, 7, 1)
	return g, partition.CartesianCut(g, 4), brandes.FirstKSources(g, 0, 256)
}

func BenchmarkRunTCP(b *testing.B)       { benchRunTCP(b, 1) }
func BenchmarkRunTCPDepth4(b *testing.B) { benchRunTCP(b, 4) }

// BenchmarkRunMemSameJob is the BenchmarkRunTCP job on the in-process
// transport: the denominator of the TCP/in-process ratio.
func BenchmarkRunMemSameJob(b *testing.B) {
	if testing.Short() {
		b.Skip("whole-run benchmark")
	}
	g, pt, sources := tcpBenchJob()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = Run(g, pt, sources, Options{BatchSize: 4})
	}
}

// rotationGolden holds one hash per (cut, depth) of the pipelined
// schedule; TestPipelineRotationPinned compares against it.
const rotationGolden = "testdata/rotation.golden"

// rotationHash folds, in emission order, every event of a trace except
// the per-pair sends into one FNV-64a hash over (Kind, Seq, Batch,
// Round, Host, Phase, Bytes). Send events are left out: the pool's
// workers emit them, so two runs of the same schedule may interleave
// them differently.
func rotationHash(events []obs.Event) string {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	for _, e := range events {
		if e.Kind == obs.KindSend {
			continue
		}
		h.Write([]byte(e.Kind))
		h.Write([]byte(e.Phase))
		put(e.Seq)
		put(int64(e.Batch))
		put(int64(e.Round))
		put(int64(e.Host))
		put(e.Bytes)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestPipelineRotationPinned pins the pipelined schedule itself, which
// TestPipelineDepthsBitwiseAgree cannot see (it compares only
// depth-invariant events): the order in which batches take the turn,
// refill a finished batch's slot and retire shows in the sequence of
// phase, transport and batch events. 37 sources at k = 4 make ten
// batches, the last of one source, so every depth refills slots and
// drains an uneven tail. -update rewrites the golden.
func TestPipelineRotationPinned(t *testing.T) {
	g := gen.RMAT(8, 8, 3)
	sources := brandes.FirstKSources(g, 0, 37)
	cuts := []struct {
		name string
		pt   *partition.Partitioning
	}{
		{"edge-cut", partition.EdgeCut(g, 4)},
		{"cartesian", partition.CartesianCut(g, 4)},
	}
	got := map[string]string{}
	var names []string
	for _, cut := range cuts {
		for _, depth := range []int{2, 3, 4} {
			// LevelPhase records every event but the sends (about 10 000).
			tr := obs.NewTrace(1<<16, obs.LevelPhase)
			Run(g, cut.pt, sources, Options{BatchSize: 4, PipelineDepth: depth, Trace: tr})
			if tr.Dropped() > 0 {
				t.Fatalf("%s depth %d: trace dropped %d events", cut.name, depth, tr.Dropped())
			}
			name := fmt.Sprintf("%s/depth%d", cut.name, depth)
			names = append(names, name)
			got[name] = rotationHash(tr.Events())
		}
	}
	if *update {
		var b strings.Builder
		for _, name := range names {
			fmt.Fprintf(&b, "%s %s\n", name, got[name])
		}
		if err := os.WriteFile(rotationGolden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(rotationGolden)
	if err != nil {
		t.Fatalf("%v (record it with -update)", err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if f := strings.Fields(line); len(f) == 2 {
			want[f[0]] = f[1]
		}
	}
	for _, name := range names {
		if got[name] != want[name] {
			t.Errorf("%s: rotation hash %s, golden %s", name, got[name], want[name])
		}
	}
}

// pipelineFault is the value TestPipelineBatchPanicReachesCaller
// raises inside a batch.
type pipelineFault struct{ batch, round int }

// TestPipelineBatchPanicReachesCaller drives the failure path: batch 3
// panics in its second forward round, mid-round (in arbitration, between
// the reduce and the broadcast), while other batches and other hosts are
// parked mid-exchange, at depths 1, 2 and 4. In process (every host an
// SPMD goroutine over the mesh, host 0 the caller), with the panic on
// host 0 and on host 2, the run must re-raise exactly that value on the
// caller's goroutine, and every batch and host goroutine must be gone
// soon after. Over loopback TCP (four hosts, each its own run over its
// own transport) with the panic on host 2, host 2's run must re-raise
// that value, every peer's run must return a *dgalois.FaultError within
// its short stall budget instead of hanging, and no goroutine may be
// left once every transport is closed.
func TestPipelineBatchPanicReachesCaller(t *testing.T) {
	g := gen.RoadGrid(6, 6, 5)
	pt := partition.EdgeCut(g, 4)
	sources := brandes.FirstKSources(g, 0, 24) // k = 4: six batches
	want := pipelineFault{batch: 3, round: 2}
	panicOn := func(host int) func(*batchRun) {
		return func(b *batchRun) {
			if b.bi != want.batch {
				return
			}
			arbitrate := b.phases.arbitrate
			b.phases.arbitrate = func(h int) {
				if h == host && b.r == want.round {
					panic(want)
				}
				arbitrate(h)
			}
		}
	}
	// raised runs the job and returns the value it raised, or its error.
	raised := func(opts Options, instrument func(*batchRun)) (v any, err error) {
		defer func() { v = recover() }()
		_, _, err = run(g, pt, sources, opts, instrument)
		return nil, err
	}
	for _, host := range []int{0, 2} {
		for _, depth := range []int{1, 2, 4} {
			what := fmt.Sprintf("in process, host %d, depth %d", host, depth)
			base := runtime.NumGoroutine()
			if got, _ := raised(Options{BatchSize: 4, PipelineDepth: depth}, panicOn(host)); got != want {
				t.Fatalf("%s: run raised %v, want %v", what, got, want)
			}
			waitGoroutines(t, base, what)
		}
	}
	for _, depth := range []int{1, 2, 4} {
		what := fmt.Sprintf("TCP, host 2, depth %d", depth)
		base := runtime.NumGoroutine()
		views := tcpViewsOpts(t, pt.NumHosts, gluon.TCPOptions{DeadlineSteps: 40})
		vals := make([]any, len(views))
		errs := make([]error, len(views))
		var wg sync.WaitGroup
		for h := range views {
			wg.Add(1)
			go func(h int) {
				defer wg.Done()
				vals[h], errs[h] = raised(Options{BatchSize: 4, PipelineDepth: depth, Transport: views[h]}, panicOn(2))
			}(h)
		}
		finished := make(chan struct{})
		go func() {
			wg.Wait()
			close(finished)
		}()
		select {
		case <-finished:
		case <-time.After(30 * time.Second):
			t.Fatalf("%s: a host's run has not returned after 30 s", what)
		}
		closeViews(views)
		for h := range views {
			var fe *dgalois.FaultError
			switch {
			case h == 2 && vals[h] != want:
				t.Fatalf("%s: host 2's run raised %v, want %v", what, vals[h], want)
			case h != 2 && (vals[h] != nil || !errors.As(errs[h], &fe)):
				t.Fatalf("%s: host %d's run raised %v and returned %v, want a *dgalois.FaultError", what, h, vals[h], errs[h])
			}
		}
		waitGoroutines(t, base, what)
	}
}

// waitGoroutines fails unless the goroutine count falls back to base
// within 2 s.
func waitGoroutines(t *testing.T, base int, what string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%s: %d goroutines 2 s after the failure, %d before the run", what, n, base)
	}
}

// failingSink refuses the checkpoint of one boundary.
type failingSink struct {
	*elastic.MemSink
	at int
}

func (s *failingSink) Put(batch int, data []byte) error {
	if batch == s.at {
		return errors.New("disk full")
	}
	return s.MemSink.Put(batch, data)
}

// TestCheckpointSinkFailureReachesCaller: host 0 of an in-process SPMD
// run writes the checkpoints, and when the sink refuses one, RunChecked
// returns the *dgalois.FaultError that names it — not the error the
// other hosts see when the mesh closes under them — with every host
// goroutine gone.
func TestCheckpointSinkFailureReachesCaller(t *testing.T) {
	g := gen.RMAT(6, 8, 42)
	pt := partition.CartesianCut(g, 4)
	sources := brandes.FirstKSources(g, 0, 16)
	base := runtime.NumGoroutine()
	sink := &failingSink{MemSink: elastic.NewMemSink(), at: 2}
	_, _, err := RunChecked(g, pt, sources, Options{BatchSize: 4, Checkpoint: sink})
	var fe *dgalois.FaultError
	if !errors.As(err, &fe) || !strings.Contains(fe.Reason, "checkpoint: disk full") {
		t.Fatalf("RunChecked returned %v, want the sink's failure as a *dgalois.FaultError", err)
	}
	if got := sink.Boundaries(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("sink holds boundaries %v, want [1]", got)
	}
	waitGoroutines(t, base, "checkpoint failure")
}
