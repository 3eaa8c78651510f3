package dgalois

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"mrbc/internal/bitset"
	"mrbc/internal/gluon"
	"mrbc/internal/obs"
)

// TestComputeRunsAllHosts pins the dispatch contract at every pool
// size the GOMAXPROCS sweep yields, the one-worker pool included: each
// host's function runs exactly once per phase, whoever claims it.
func TestComputeRunsAllHosts(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4, 8} {
		runtime.GOMAXPROCS(procs)
		const hosts, phases = 8, 50
		c := NewCluster(hosts)
		var visits [hosts]int64
		for p := 0; p < phases; p++ {
			c.Compute(func(h int) { atomic.AddInt64(&visits[h], 1) })
		}
		c.Close()
		for h, n := range visits {
			if n != phases {
				t.Fatalf("GOMAXPROCS=%d: host %d ran %d times in %d phases", procs, h, n, phases)
			}
		}
		if st := c.Stats(); st.Hosts != hosts {
			t.Fatalf("Hosts = %d", st.Hosts)
		}
	}
}

func TestInvalidHostCountPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewCluster(0)
}

func TestExchangeDeliversAndCounts(t *testing.T) {
	c := NewCluster(3)
	defer c.Close()
	received := make([][]string, 3)
	c.Exchange(
		func(from, to int, w *gluon.Writer) {
			if from == 0 {
				w.Raw([]byte(fmt.Sprintf("0->%d", to)))
			}
		},
		func(to, from int, data []byte, dec *gluon.Decoder) {
			received[to] = append(received[to], string(data))
		},
	)
	if len(received[0]) != 0 {
		t.Fatalf("host 0 received %v", received[0])
	}
	if len(received[1]) != 1 || received[1][0] != "0->1" {
		t.Fatalf("host 1 received %v", received[1])
	}
	if len(received[2]) != 1 || received[2][0] != "0->2" {
		t.Fatalf("host 2 received %v", received[2])
	}
	st := c.Stats()
	if st.Messages != 2 {
		t.Fatalf("messages = %d, want 2", st.Messages)
	}
	if st.Bytes != int64(len("0->1")+len("0->2")) {
		t.Fatalf("bytes = %d", st.Bytes)
	}
}

func TestNoSelfExchange(t *testing.T) {
	c := NewCluster(2)
	defer c.Close()
	c.Exchange(
		func(from, to int, w *gluon.Writer) {
			if from == to {
				t.Error("pack called for self pair")
			}
			w.Byte(1)
		},
		func(to, from int, data []byte, dec *gluon.Decoder) {
			if to == from {
				t.Error("unpack called for self pair")
			}
		},
	)
}

func TestRoundCounterAndImbalance(t *testing.T) {
	c := NewCluster(4)
	defer c.Close()
	for r := 0; r < 5; r++ {
		c.BeginRound()
		c.Compute(func(h int) {
			if h == 0 {
				time.Sleep(2 * time.Millisecond) // deliberate skew
			}
		})
	}
	st := c.Stats()
	if st.Rounds != 5 {
		t.Fatalf("rounds = %d", st.Rounds)
	}
	if st.LoadImbalance <= 1.0 {
		t.Fatalf("imbalance = %v, want > 1 with a skewed host", st.LoadImbalance)
	}
	if st.ComputeTime < 10*time.Millisecond {
		t.Fatalf("compute time %v too small", st.ComputeTime)
	}
}

func TestExchangeConcurrentSafety(t *testing.T) {
	// Pack runs pair-parallel and unpack per-receiver-parallel on the
	// worker pool; make sure a workload with all pairs active is
	// race-free and delivers everything (run under -race in CI).
	c := NewCluster(8)
	defer c.Close()
	var delivered int64
	for round := 0; round < 20; round++ {
		c.Exchange(
			func(from, to int, w *gluon.Writer) { w.Byte(byte(from)); w.Byte(byte(to)) },
			func(to, from int, data []byte, dec *gluon.Decoder) {
				if int(data[0]) != from || int(data[1]) != to {
					t.Error("misrouted buffer")
				}
				atomic.AddInt64(&delivered, 1)
			},
		)
	}
	if delivered != 20*8*7 {
		t.Fatalf("delivered = %d, want %d", delivered, 20*8*7)
	}
}

// fixedWorkload packs a deterministic gluon-encoded message on every
// pair: positions ≡ 0 mod (from+2) of a listLen-entry shared list, one
// u64 payload each. Each sender's marked set is built once, here, so a
// pack allocates nothing. Returns the pack and unpack funcs.
func fixedWorkload(hosts, listLen int, sink *int64) (func(int, int, *gluon.Writer), func(int, int, []byte, *gluon.Decoder)) {
	marked := make([]*bitset.Set, hosts)
	for from := range marked {
		marked[from] = bitset.New(listLen)
		for i := 0; i < listLen; i += from + 2 {
			marked[from].Set(i)
		}
	}
	pack := func(from, to int, w *gluon.Writer) {
		gluon.EncodeUpdates(w, listLen, marked[from], func(pos int, w *gluon.Writer) {
			w.U64(uint64(pos))
		})
	}
	unpack := func(to, from int, data []byte, dec *gluon.Decoder) {
		dec.DecodeUpdates(listLen, data, func(pos int, r *gluon.Reader) {
			atomic.AddInt64(sink, int64(r.U64()))
		})
	}
	return pack, unpack
}

// TestVolumeAccountingMatchesSerialRecount pins that folding the
// byte/message accounting into the pair-parallel pack loop (replacing
// the seed's serial counting pass) changes nothing: Stats.Bytes is the
// sum of per-message lengths and Stats.Messages the non-empty count,
// recomputed independently on an identical fixed workload.
func TestVolumeAccountingMatchesSerialRecount(t *testing.T) {
	const hosts, listLen = 4, 500
	var sink int64
	pack, unpack := fixedWorkload(hosts, listLen, &sink)

	// Independent recount: serially pack each pair with a fresh writer.
	var wantBytes, wantMessages int64
	for from := 0; from < hosts; from++ {
		for to := 0; to < hosts; to++ {
			if from == to {
				continue
			}
			var w gluon.Writer
			pack(from, to, &w)
			if w.Len() > 0 {
				wantBytes += int64(w.Len())
				wantMessages++
			}
		}
	}

	c := NewCluster(hosts)
	defer c.Close()
	const rounds = 3
	for i := 0; i < rounds; i++ {
		c.Exchange(pack, unpack)
	}
	st := c.Stats()
	if st.Bytes != rounds*wantBytes || st.Messages != rounds*wantMessages {
		t.Fatalf("accounting drifted: got %d B / %d msgs, want %d B / %d msgs",
			st.Bytes, st.Messages, rounds*wantBytes, rounds*wantMessages)
	}
	if got := st.Encoding.Total(); got != st.Messages {
		t.Fatalf("encoding breakdown covers %d of %d messages", got, st.Messages)
	}
}

// TestEncodingStatsBreakdown checks the per-format message tallies:
// the adaptive encoding reports the formats the densities select.
func TestEncodingStatsBreakdown(t *testing.T) {
	const hosts, listLen = 3, 1024
	marked := []*bitset.Set{bitset.New(listLen), bitset.New(listLen), bitset.New(listLen)}
	marked[0].Set(listLen / 2) // one bit of 1024: sparse wins
	marked[1].Fill()           // everything marked: all-marked wins
	for i := 0; i < listLen; i += 2 {
		marked[2].Set(i) // every other bit: dense wins
	}
	auto := NewCluster(hosts)
	defer auto.Close()
	auto.Exchange(
		func(from, to int, w *gluon.Writer) {
			gluon.EncodeUpdates(w, listLen, marked[from], func(pos int, w *gluon.Writer) { w.Byte(1) })
		},
		unpackDiscard(listLen),
	)
	as := auto.Stats()
	want := gluon.EncodingCounts{Sparse: 2, All: 2, Dense: 2}
	if as.Encoding != want {
		t.Fatalf("adaptive format mix = %+v, want %+v", as.Encoding, want)
	}
}

func unpackDiscard(listLen int) func(int, int, []byte, *gluon.Decoder) {
	return func(to, from int, data []byte, dec *gluon.Decoder) {
		dec.DecodeUpdates(listLen, data, func(pos int, r *gluon.Reader) { r.Byte() })
	}
}

// TestExchangeZeroAllocs pins the tentpole property: once writers,
// decoders, worker pool and cost table are warm, a full Exchange performs
// zero heap allocations, whether its phases run on the caller or on the
// pool.
func TestExchangeZeroAllocs(t *testing.T) {
	const hosts, listLen = 4, 2048
	var sink int64
	pack, unpack := fixedWorkload(hosts, listLen, &sink)
	for _, pooled := range []bool{false, true} {
		c := NewCluster(hosts)
		for i := 0; i < 3; i++ { // warm the pools and the cost table
			c.Exchange(pack, unpack)
		}
		before := phaseCounts(c)
		allocs := testing.AllocsPerRun(10, func() {
			place(c, pooled)
			c.Exchange(pack, unpack)
		})
		if allocs != 0 {
			t.Fatalf("steady-state Exchange (pooled %t) allocates %.1f objects/op, want 0", pooled, allocs)
		}
		if got := phaseCounts(c).sub(before); pooled && got.caller != 0 || !pooled && got.pooled != 0 {
			t.Fatalf("pooled %t: the measured exchanges dispatched %+v", pooled, got)
		}
		c.Close()
	}
}

// place pins where each body the cluster has dispatched runs next: on
// the pool, or on the caller (with no work measured, so a compute phase
// does not escape either).
func place(c *Cluster, pooled bool) {
	for i := range c.costs {
		c.costs[i].work = 0
		if pooled {
			c.costs[i].work = breakEven
		}
	}
}

// TestExchangeZeroAllocsWithTracing extends the pin to the enabled
// path: the ring tracer holds events inline and the link tallies the
// events fold from are preallocated per ticket, so even a traced
// Exchange allocates nothing at steady state.
func TestExchangeZeroAllocsWithTracing(t *testing.T) {
	const hosts, listLen = 4, 2048
	var sink int64
	pack, unpack := fixedWorkload(hosts, listLen, &sink)
	tr := obs.NewTrace(1<<10, obs.LevelPhase)
	c := NewClusterOpts(hosts, ClusterOptions{Trace: tr})
	defer c.Close()
	for i := 0; i < 3; i++ {
		c.Exchange(pack, unpack)
	}
	allocs := testing.AllocsPerRun(10, func() {
		c.Exchange(pack, unpack)
	})
	if allocs != 0 {
		t.Fatalf("traced Exchange allocates %.1f objects/op, want 0", allocs)
	}
}

// TestExchangeZeroAllocsWithTee extends the pin to the streamed-trace
// path: a stamped tracer with a tee channel attached — what bcd runs
// when it streams a host's trace to its file — still performs zero
// heap allocations per Exchange. The tee is drained after the
// measurement instead of by a concurrent goroutine because
// AllocsPerRun counts process-wide mallocs: the sink's own file writer
// is asynchronous by design and not part of the Exchange op.
func TestExchangeZeroAllocsWithTee(t *testing.T) {
	const hosts, listLen = 4, 2048
	var sink int64
	pack, unpack := fixedWorkload(hosts, listLen, &sink)
	// bcd's ring holds one event: the tee is the record.
	tr := obs.NewTrace(1, obs.LevelPhase)
	tr.SetStamp(2, 1)
	tee := make(chan obs.Event, 1<<13)
	tr.SetTee(tee)
	c := NewClusterOpts(hosts, ClusterOptions{Trace: tr})
	defer c.Close()
	for i := 0; i < 3; i++ {
		c.Exchange(pack, unpack)
	}
	allocs := testing.AllocsPerRun(10, func() {
		c.Exchange(pack, unpack)
	})
	if allocs != 0 {
		t.Fatalf("teed Exchange allocates %.1f objects/op, want 0", allocs)
	}
	close(tee)
	var n int
	for e := range tee {
		if e.OriginHost() != 2 || e.Epoch != 1 {
			t.Fatalf("teed event not stamped: origin=%d epoch=%d", e.Origin, e.Epoch)
		}
		n++
	}
	if n == 0 {
		t.Fatal("tee received no events")
	}
}

// TestLinkEventsConserve pins the link-event invariant the cluster
// conservation checker builds on: every pack-side link has an
// unpack-side twin with the same (seq, from, to) key and identical
// byte/message/format tallies, and the links sum to the per-host pack
// phase totals.
func TestLinkEventsConserve(t *testing.T) {
	const hosts, listLen, rounds = 4, 512, 3
	var sink int64
	pack, unpack := fixedWorkload(hosts, listLen, &sink)
	tr := obs.NewTrace(1<<12, obs.LevelPhase)
	c := NewClusterOpts(hosts, ClusterOptions{Trace: tr})
	defer c.Close()
	for r := 0; r < rounds; r++ {
		c.BeginRound()
		c.Exchange(pack, unpack)
	}
	type key struct {
		seq      int64
		from, to int32
	}
	sent := make(map[key]obs.Event)
	var recv []obs.Event
	var linkBytes, packBytes int64
	for _, e := range tr.Events() {
		switch {
		case e.Kind == obs.KindLink && e.Phase == obs.PhasePack:
			sent[key{e.Seq, e.Host, e.Peer}] = e
			linkBytes += e.Bytes
		case e.Kind == obs.KindLink && e.Phase == obs.PhaseUnpack:
			recv = append(recv, e)
		case e.Kind == obs.KindPhase && e.Phase == obs.PhasePack:
			packBytes += e.Bytes
		}
	}
	if len(sent) == 0 || len(recv) != len(sent) {
		t.Fatalf("link events: %d sent, %d received", len(sent), len(recv))
	}
	if linkBytes != packBytes {
		t.Fatalf("pack links sum to %d bytes, pack phases to %d", linkBytes, packBytes)
	}
	for _, r := range recv {
		s, ok := sent[key{r.Seq, r.Peer, r.Host}]
		if !ok {
			t.Fatalf("received link %d->%d seq %d has no sent twin", r.Peer, r.Host, r.Seq)
		}
		if s.Bytes != r.Bytes || s.Messages != r.Messages ||
			s.Dense != r.Dense || s.Sparse != r.Sparse || s.All != r.All {
			t.Fatalf("link %d->%d seq %d: sent %+v received %+v", r.Peer, r.Host, r.Seq, s, r)
		}
	}
}

// TestTraceEventsMatchStats pins the trace-accounting invariant at the
// substrate level: summing the pack/unpack phase events reproduces the
// Stats volume exactly, the expected phases appear per round, and the
// registry mirror agrees with Stats.
func TestTraceEventsMatchStats(t *testing.T) {
	const hosts, listLen, rounds = 4, 512, 3
	var sink int64
	pack, unpack := fixedWorkload(hosts, listLen, &sink)
	tr := obs.NewTrace(1<<12, obs.LevelPhase)
	reg := obs.NewRegistry()
	c := NewClusterOpts(hosts, ClusterOptions{Trace: tr, Metrics: reg})
	defer c.Close()
	for r := 0; r < rounds; r++ {
		c.BeginRound()
		c.Compute(func(h int) {})
		c.Exchange(pack, unpack)
	}
	if tr.Dropped() != 0 {
		t.Fatalf("trace dropped %d events", tr.Dropped())
	}
	st := c.Stats()
	events := tr.Events()
	tot := obs.Sum(events)
	if tot.PackBytes != st.Bytes || tot.UnpackBytes != st.Bytes {
		t.Fatalf("trace bytes %d/%d (pack/unpack) != Stats.Bytes %d", tot.PackBytes, tot.UnpackBytes, st.Bytes)
	}
	if tot.PackMessages != st.Messages || tot.UnpackMessages != st.Messages {
		t.Fatalf("trace messages %d/%d != Stats.Messages %d", tot.PackMessages, tot.UnpackMessages, st.Messages)
	}
	if (gluon.EncodingCounts{Dense: tot.Dense, Sparse: tot.Sparse, All: tot.All}) != st.Encoding {
		t.Fatalf("trace format mix {%d %d %d} != Stats.Encoding %+v", tot.Dense, tot.Sparse, tot.All, st.Encoding)
	}
	phases := make(map[obs.Phase]int)
	for _, e := range events {
		if e.Kind == obs.KindPhase {
			phases[e.Phase]++
		}
	}
	if phases[obs.PhaseCompute] != rounds*hosts || phases[obs.PhaseBarrier] != rounds*hosts {
		t.Fatalf("compute/barrier events = %d/%d, want %d each", phases[obs.PhaseCompute], phases[obs.PhaseBarrier], rounds*hosts)
	}
	if phases[obs.PhaseExchange] != rounds {
		t.Fatalf("exchange events = %d, want %d", phases[obs.PhaseExchange], rounds)
	}
	if phases[obs.PhasePack] == 0 || phases[obs.PhaseUnpack] == 0 {
		t.Fatal("missing pack/unpack events")
	}

	snap := reg.Snapshot()
	if snap.Counters["dgalois_bytes_total"] != st.Bytes ||
		snap.Counters["dgalois_messages_total"] != st.Messages ||
		snap.Counters["dgalois_rounds_total"] != int64(st.Rounds) {
		t.Fatalf("registry counters disagree with Stats: %+v vs %+v", snap.Counters, st)
	}
	// Every message here came from gluon.EncodeUpdates, so the
	// per-format byte counters must cover the whole volume.
	fmtBytes := snap.Counters["dgalois_bytes_dense_total"] +
		snap.Counters["dgalois_bytes_sparse_total"] +
		snap.Counters["dgalois_bytes_all_total"]
	if fmtBytes != st.Bytes {
		t.Fatalf("per-format byte counters cover %d of %d bytes", fmtBytes, st.Bytes)
	}
	if snap.Gauges["dgalois_hosts"] != hosts {
		t.Fatalf("hosts gauge = %d", snap.Gauges["dgalois_hosts"])
	}
	if hs := snap.Histograms["dgalois_exchange_seconds"]; hs.Count != rounds {
		t.Fatalf("exchange histogram recorded %d samples, want %d", hs.Count, rounds)
	}
}

func BenchmarkExchangeSteadyState(b *testing.B) {
	const hosts, listLen = 4, 4096
	var sink int64
	pack, unpack := fixedWorkload(hosts, listLen, &sink)
	c := NewCluster(hosts)
	defer c.Close()
	for i := 0; i < 3; i++ {
		c.Exchange(pack, unpack)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Exchange(pack, unpack)
	}
}

// TestSharedRegistryStatsArePerRun pins the two audiences of the
// cluster's counts: a registry reused across clusters (a bcd daemon's
// -metrics registry serves every job it runs) accumulates the mirrored
// counters monotonically for /metrics, while each cluster's Stats and
// trace round numbers are its own.
func TestSharedRegistryStatsArePerRun(t *testing.T) {
	reg := obs.NewRegistry()
	runOnce := func() Stats {
		c := NewClusterOpts(2, ClusterOptions{Metrics: reg})
		defer c.Close()
		for r := 0; r < 3; r++ {
			c.BeginRound()
			c.Exchange(
				func(from, to int, w *gluon.Writer) { w.Raw([]byte("x")) },
				func(to, from int, data []byte, dec *gluon.Decoder) {},
			)
		}
		return c.Stats()
	}
	first := runOnce()
	second := runOnce()
	if first.Rounds != 3 || second.Rounds != 3 {
		t.Fatalf("per-run rounds = %d, %d; want 3, 3", first.Rounds, second.Rounds)
	}
	if second.Bytes != first.Bytes || second.Messages != first.Messages {
		t.Fatalf("second run stats (%d B, %d msgs) differ from first (%d B, %d msgs)",
			second.Bytes, second.Messages, first.Bytes, first.Messages)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["dgalois_rounds_total"]; got != 6 {
		t.Fatalf("registry rounds_total = %d, want cumulative 6", got)
	}
	if got := snap.Counters["dgalois_bytes_total"]; got != 2*first.Bytes {
		t.Fatalf("registry bytes_total = %d, want cumulative %d", got, 2*first.Bytes)
	}
}

// TestRestoreLeavesMirrorConsistent pins what a restored cluster reports:
// Stats continue from the checkpointed cursor, while the registry mirror
// counts only the exchanges this cluster ran, so its totals agree with
// its per-host vectors and its per-format byte counters.
func TestRestoreLeavesMirrorConsistent(t *testing.T) {
	const hosts, listLen = 4, 512
	var sink int64
	pack, unpack := fixedWorkload(hosts, listLen, &sink)
	reg := obs.NewRegistry()
	c := NewClusterOpts(hosts, ClusterOptions{Metrics: reg})
	defer c.Close()
	restored := Cursor{Seq: 7, Rounds: 3, Bytes: 1000, Messages: 10, Encoding: gluon.EncodingCounts{Dense: 4, Sparse: 6}}
	c.Restore(restored)
	c.BeginRound()
	c.Exchange(pack, unpack)

	st := c.Stats()
	snap := reg.Snapshot()
	ran := snap.Counters["dgalois_bytes_total"]
	if ran == 0 || st.Bytes != restored.Bytes+ran || st.Rounds != 4 {
		t.Fatalf("Stats = %d B over %d rounds, want the restored %d B + %d B over 4 rounds", st.Bytes, st.Rounds, restored.Bytes, ran)
	}
	if got := c.Cursor(); got.Messages != restored.Messages+snap.Counters["dgalois_messages_total"] || got.Seq != restored.Seq+2 {
		t.Fatalf("Cursor = %+v after restoring %+v and one exchange", got, restored)
	}
	sum := func(name string) (s int64) {
		for _, v := range snap.CounterVecs[name].Values {
			s += v
		}
		return s
	}
	if host := sum("dgalois_host_bytes_total"); host != ran {
		t.Fatalf("dgalois_bytes_total = %d, per-host bytes sum to %d", ran, host)
	}
	if msgs, host := snap.Counters["dgalois_messages_total"], sum("dgalois_host_messages_total"); msgs != host {
		t.Fatalf("dgalois_messages_total = %d, per-host messages sum to %d", msgs, host)
	}
	fmtBytes := snap.Counters["dgalois_bytes_dense_total"] + snap.Counters["dgalois_bytes_sparse_total"] +
		snap.Counters["dgalois_bytes_all_total"]
	if fmtBytes != ran {
		t.Fatalf("dgalois_bytes_total = %d, per-format bytes sum to %d", ran, fmtBytes)
	}
}

// TestComputeZeroAllocs is TestExchangeZeroAllocs for the other phase
// kind: a compute phase runs on the caller or on the persistent pool
// through a bound task func, so with the tracer off or on it allocates
// nothing.
func TestComputeZeroAllocs(t *testing.T) {
	for _, tr := range []*obs.Trace{nil, obs.NewTrace(1<<10, obs.LevelPhase)} {
		for _, pooled := range []bool{false, true} {
			c := NewClusterOpts(4, ClusterOptions{Trace: tr})
			var visits [4]int64
			fn := func(h int) { visits[h]++ }
			for i := 0; i < 3; i++ {
				c.Compute(fn)
			}
			before := phaseCounts(c)
			allocs := testing.AllocsPerRun(10, func() {
				place(c, pooled)
				c.Compute(fn)
			})
			if allocs != 0 {
				t.Fatalf("steady-state Compute (tracing %t, pooled %t) allocates %.1f objects/op, want 0", tr != nil, pooled, allocs)
			}
			if got := phaseCounts(c).sub(before); pooled && got.caller != 0 || !pooled && got.pooled != 0 {
				t.Fatalf("pooled %t: the measured phases dispatched %+v", pooled, got)
			}
			c.Close()
		}
	}
}

// spin busy-waits for d: a phase body with a known amount of work.
func spin(d time.Duration) {
	for t0 := time.Now(); time.Since(t0) < d; {
	}
}

// dispatches counts where a cluster's in-process phases ran, read from
// its instruments (detached ones without a registry count all the same).
type dispatches struct{ caller, pooled, escaped int64 }

func phaseCounts(c *Cluster) dispatches {
	return dispatches{caller: c.callerC.Load(), pooled: c.pooledC.Load(), escaped: c.escapedC.Load()}
}

func (d dispatches) sub(o dispatches) dispatches {
	return dispatches{d.caller - o.caller, d.pooled - o.pooled, d.escaped - o.escaped}
}

// TestDispatchTinyBodyRunsOnCaller pins where a small phase runs: its
// body's first dispatch goes to the pool, which measures it, and the
// later ones run on the caller, every host exactly once. Not every one:
// a run that is preempted measures high and sends the next to the pool
// (under the race detector, with other packages testing alongside, a
// few in ten), so the test asks for most.
func TestDispatchTinyBodyRunsOnCaller(t *testing.T) {
	const hosts, phases = 4, 40
	c := NewCluster(hosts)
	defer c.Close()
	var visits [hosts]int64
	fn := func(h int) { atomic.AddInt64(&visits[h], 1) }
	c.Compute(fn)
	if got := phaseCounts(c); got != (dispatches{pooled: 1}) {
		t.Fatalf("first dispatch: %+v, want it pooled", got)
	}
	for p := 1; p < phases; p++ {
		c.Compute(fn)
	}
	if got := phaseCounts(c); got.caller < phases/2 {
		t.Fatalf("after %d phases: %+v, want most on the caller", phases, got)
	}
	for h, n := range visits {
		if n != phases {
			t.Fatalf("host %d ran %d times in %d phases", h, n, phases)
		}
	}
}

// TestDispatchPlacementRunsEveryTask pins that the caller's path and the
// pool's run the same phase: wherever compute, pack and unpack are
// placed, every host computes once, every pair packs once and every
// receiver unpacks its senders' buffers once.
func TestDispatchPlacementRunsEveryTask(t *testing.T) {
	const hosts, rounds = 4, 5
	for _, pooled := range []bool{false, true} {
		c := NewCluster(hosts)
		var visits, unpacked [hosts]int64
		compute := func(h int) { atomic.AddInt64(&visits[h], 1) }
		pack := func(from, to int, w *gluon.Writer) { w.Byte(byte(from)); w.Byte(byte(to)) }
		unpack := func(to, from int, data []byte, dec *gluon.Decoder) {
			if int(data[0]) != from || int(data[1]) != to {
				t.Error("misrouted buffer")
			}
			atomic.AddInt64(&unpacked[to], 1)
		}
		c.Compute(compute)
		c.Exchange(pack, unpack)
		before := phaseCounts(c)
		for r := 0; r < rounds; r++ {
			place(c, pooled)
			c.Compute(compute)
			place(c, pooled)
			c.Exchange(pack, unpack)
		}
		if got := phaseCounts(c).sub(before); pooled && got.pooled != 3*rounds || !pooled && got.pooled != 0 {
			t.Fatalf("pooled %t: %d phases dispatched %+v", pooled, 3*rounds, got)
		}
		for h := 0; h < hosts; h++ {
			if visits[h] != rounds+1 || unpacked[h] != (rounds+1)*(hosts-1) {
				t.Fatalf("pooled %t: host %d computed %d times and unpacked %d buffers, want %d and %d",
					pooled, h, visits[h], unpacked[h], rounds+1, (rounds+1)*(hosts-1))
			}
		}
		c.Close()
	}
}

// TestDispatchGrowingBodyEscapes pins the escape: a compute body the
// caller runs that grows past the break-even hands the hosts after the
// one that crossed it to the pool — they start only once that host is
// done — and the body's next dispatch goes to the pool directly.
func TestDispatchGrowingBodyEscapes(t *testing.T) {
	const hosts = 4
	c := NewCluster(hosts)
	defer c.Close()
	var grown atomic.Bool
	var starts, ends [hosts]atomic.Int64
	epoch := time.Now()
	fn := func(h int) {
		starts[h].Store(int64(time.Since(epoch)))
		if grown.Load() {
			spin(2 * breakEven)
		}
		ends[h].Store(int64(time.Since(epoch)))
	}
	c.Compute(fn) // enters the body in the cost table
	place(c, false)
	grown.Store(true)
	before := phaseCounts(c)
	c.Compute(fn)
	if got := phaseCounts(c).sub(before); got != (dispatches{escaped: 1}) {
		t.Fatalf("grown phase: %+v, want it escaped", got)
	}
	for h := 1; h < hosts; h++ {
		if starts[h].Load() < ends[0].Load() {
			t.Fatalf("host %d started before host 0, which took the phase past the break-even, was done", h)
		}
	}
	before = phaseCounts(c)
	c.Compute(fn)
	if got := phaseCounts(c).sub(before); got != (dispatches{pooled: 1}) {
		t.Fatalf("phase after the escape: %+v, want it pooled", got)
	}
}

// TestDispatchShrinkingBodyReturns pins the way back: a body measured
// big on the pool that shrinks is measured small on its next pooled
// dispatch, and runs on the caller from then on.
func TestDispatchShrinkingBodyReturns(t *testing.T) {
	c := NewCluster(4)
	defer c.Close()
	var big atomic.Bool
	big.Store(true)
	fn := func(h int) {
		if big.Load() {
			spin(breakEven)
		}
	}
	for i := 0; i < 3; i++ {
		c.Compute(fn)
	}
	if got := phaseCounts(c); got != (dispatches{pooled: 3}) {
		t.Fatalf("big phases: %+v, want all pooled", got)
	}
	big.Store(false)
	before := phaseCounts(c)
	c.Compute(fn)
	if got := phaseCounts(c).sub(before); got != (dispatches{pooled: 1}) {
		t.Fatalf("first small phase: %+v, want it pooled on the big phase's estimate", got)
	}
	// Measured small on the pool (or, if preempted, on a later pooled
	// dispatch), the body comes back to the caller.
	for i := 0; phaseCounts(c).caller == 0; i++ {
		if i == 50 {
			t.Fatalf("a shrunk body never ran on the caller: %+v", phaseCounts(c))
		}
		c.Compute(fn)
	}
}

// TestPooledTaskPanicReachesCaller pins the pool's failure path: a
// compute body dispatched to the pool that panics on host 3, whichever
// participant runs that host, ends its phase and Compute re-raises the
// value on the caller, as the caller's own path does. The pool keeps
// every worker, so the next phase runs each host once, and once the
// cluster is closed none of its goroutines is left.
func TestPooledTaskPanicReachesCaller(t *testing.T) {
	type sentinel struct{ host int }
	const hosts = 4
	base := runtime.NumGoroutine()
	c := NewCluster(hosts)
	fn := func(h int) {
		spin(breakEven)
		if h == 3 {
			panic(sentinel{h})
		}
	}
	for round := 0; round < 10; round++ {
		place(c, true)
		before := phaseCounts(c)
		got := func() (v any) {
			defer func() { v = recover() }()
			c.Compute(fn)
			return nil
		}()
		if got != (sentinel{3}) {
			t.Fatalf("round %d: Compute raised %v, want host 3's sentinel", round, got)
		}
		if d := phaseCounts(c).sub(before); d != (dispatches{pooled: 1}) {
			t.Fatalf("round %d: the panicking phase dispatched %+v, want it pooled", round, d)
		}
	}
	var visits [hosts]atomic.Int64
	for i := 0; i < 3; i++ {
		place(c, true)
		c.Compute(func(h int) { visits[h].Add(1) })
	}
	for h := range visits {
		if n := visits[h].Load(); n != 3 {
			t.Fatalf("after the panics, host %d ran %d times in 3 phases", h, n)
		}
	}
	c.Close()
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left, %d before the cluster", runtime.NumGoroutine(), base)
		}
	}
}

// TestEmptyExchangeSkipsUnpack pins the skip rule and ticket reuse: an
// in-process exchange whose packs wrote nothing runs no unpack callback,
// yet still emits its exchange event and counts as an exchange; the next
// non-empty exchange is delivered as ever. A cluster holds as many
// tickets as it ever had exchanges open at once: w for a window of w
// detached ones, however many passes, and no more for serial ones.
func TestEmptyExchangeSkipsUnpack(t *testing.T) {
	for _, window := range []int{1, 4} {
		const hosts, passes = 4, 3
		tr := obs.NewTrace(1<<10, obs.LevelPhase)
		c := NewClusterOpts(hosts, ClusterOptions{Trace: tr})
		var unpacked int64
		unpack := func(to, from int, data []byte, dec *gluon.Decoder) { atomic.AddInt64(&unpacked, 1) }
		empty := Sync{Pack: func(from, to int, w *gluon.Writer) {}, Unpack: unpack}
		pending := make([]*PendingExchange, window)
		for p := 0; p < passes; p++ {
			for k := range pending {
				pending[k] = c.BeginSync(empty, 0)
			}
			for _, t := range pending {
				t.Complete()
			}
		}
		if len(c.tickets) != window {
			t.Fatalf("window %d: %d tickets after %d passes", window, len(c.tickets), passes)
		}
		if unpacked != 0 {
			t.Fatalf("window %d: %d unpack callbacks ran for exchanges that sent nothing", window, unpacked)
		}
		exchanges := 0
		for _, e := range tr.Events() {
			if e.Kind == obs.KindPhase && e.Phase == obs.PhaseExchange {
				exchanges++
			}
		}
		if want := passes * window; exchanges != want {
			t.Fatalf("window %d: %d exchange events, want %d", window, exchanges, want)
		}
		if st := c.Stats(); st.Messages != 0 || st.Bytes != 0 {
			t.Fatalf("window %d: empty exchanges counted %d messages, %d bytes", window, st.Messages, st.Bytes)
		}
		for p := 0; p < passes; p++ {
			c.Exchange(func(from, to int, w *gluon.Writer) { w.Byte(1) }, unpack)
		}
		if unpacked != passes*hosts*(hosts-1) {
			t.Fatalf("window %d: %d buffers delivered after the empty exchanges, want %d", window, unpacked, passes*hosts*(hosts-1))
		}
		if len(c.tickets) != window {
			t.Fatalf("window %d: serial exchanges grew the cluster to %d tickets", window, len(c.tickets))
		}
		c.Close()
	}
}

// BenchmarkEmptyExchange and BenchmarkEmptyCompute are the fixed price of
// a phase: four hosts, bodies that do nothing (the in-tree form of the
// benchmark's dgalois.empty_exchange_us / dgalois.empty_compute_us
// probes).
func BenchmarkEmptyExchange(b *testing.B) {
	c := NewCluster(4)
	defer c.Close()
	pack := func(from, to int, w *gluon.Writer) {}
	unpack := func(to, from int, data []byte, dec *gluon.Decoder) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Exchange(pack, unpack)
	}
}

func BenchmarkEmptyCompute(b *testing.B) {
	c := NewCluster(4)
	defer c.Close()
	fn := func(h int) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Compute(fn)
	}
}

// TestExchangeSumInProcess pins the in-process half of the vote: the
// caller's value is already the cluster's, so a zero opens no exchange —
// no pack, no event, no sequence number, and from BeginSync no ticket —
// and anything else runs exactly an Exchange and comes back unchanged.
// Without Vote a zero term still runs the exchange.
func TestExchangeSumInProcess(t *testing.T) {
	const hosts = 4
	tr := obs.NewTrace(1<<10, obs.LevelPhase)
	c := NewClusterOpts(hosts, ClusterOptions{Trace: tr})
	defer c.Close()
	var packed, unpacked int64
	pack := func(from, to int, w *gluon.Writer) { atomic.AddInt64(&packed, 1); w.Byte(1) }
	unpack := func(to, from int, data []byte, dec *gluon.Decoder) { atomic.AddInt64(&unpacked, 1) }
	vote := Sync{Pack: pack, Unpack: unpack, Vote: true}

	if got := c.Sync(vote, 0); got != 0 {
		t.Fatalf("Sync(vote, 0) = %d", got)
	}
	if p := c.BeginSync(vote, 0); p != nil {
		t.Fatal("BeginSync(vote, 0) opened an exchange in process")
	}
	if packed != 0 || len(tr.Events()) != 0 || c.Cursor().Seq != 0 {
		t.Fatalf("a zero vote ran %d packs, emitted %d events, took %d sequence numbers", packed, len(tr.Events()), c.Cursor().Seq)
	}

	const pairs = hosts * (hosts - 1)
	if got := c.Sync(vote, -7); got != -7 || packed != pairs || unpacked != pairs {
		t.Fatalf("Sync(vote, -7) = %d after %d packs and %d unpacks, want -7 and %d of each", got, packed, unpacked, pairs)
	}
	p, q := c.BeginSync(vote, 5), c.BeginSync(vote, 6)
	q.Complete()
	p.Complete()
	if p.Sum() != 5 || q.Sum() != 6 || unpacked != 3*pairs {
		t.Fatalf("detached sums %d and %d after %d unpacks, want 5, 6 and %d", p.Sum(), q.Sum(), unpacked, 3*pairs)
	}
	vote.Vote = false
	if got := c.Sync(vote, 0); got != 0 || unpacked != 4*pairs {
		t.Fatalf("Sync without a vote = %d after %d unpacks, want 0 and %d", got, unpacked, 4*pairs)
	}
	if len(c.tickets) != 2 {
		t.Fatalf("%d tickets after two open exchanges at most, want 2", len(c.tickets))
	}
}
