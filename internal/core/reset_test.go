package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"mrbc/internal/bitset"
	"mrbc/internal/brandes"
	"mrbc/internal/gen"
	"mrbc/internal/graph"
)

// batchTrace is everything a driver can observe of one batch: the flags
// of every forward and backward round, in emission order, the round
// counts, and τ, the forward round each pair v·k+s synchronized in (0:
// never), which the engine itself does not keep.
type batchTrace struct {
	FwdRounds []int
	Fwd, Back [][]Flag
	R         int
	Tau       []int32
}

// driveBatch runs batch on e through the serial shared-memory protocol,
// recording each round's flags. It stops after fwdLimit forward rounds
// (abandoning the batch mid-forward) or backLimit backward rounds; a
// negative limit means none.
func driveBatch(e *Engine, batch []uint32, fwdLimit, backLimit int) batchTrace {
	tr := batchTrace{Tau: make([]int32, e.n*len(batch))}
	for i, s := range batch {
		e.InitSource(s, i, true)
	}
	for r := 0; fwdLimit < 0 || len(tr.Fwd) < fwdLimit; {
		if r = e.NextForwardRound(r); r < 0 {
			break
		}
		flags := e.ForwardFlags(r, nil)
		if len(flags) == 0 {
			if !e.PendingUnsent() {
				break
			}
			continue
		}
		tr.R = r
		tr.FwdRounds = append(tr.FwdRounds, r)
		tr.Fwd = append(tr.Fwd, flags)
		for _, f := range flags {
			d := e.Get(f.V, int(f.Src))
			e.ApplySync(f.V, int(f.Src), d.Dist, d.Sigma, r)
			tr.Tau[int(f.V)*len(batch)+int(f.Src)] = int32(r)
		}
		for _, f := range flags {
			e.RelaxOutLocal(f.V, int(f.Src))
		}
	}
	if fwdLimit >= 0 && backLimit < 0 {
		return tr
	}
	e.StartBackward(tr.R)
	for r := 1; r <= e.BackwardRounds() && (backLimit < 0 || r <= backLimit); r++ {
		flags := e.BackwardFlags(r, nil)
		tr.Back = append(tr.Back, flags)
		for _, f := range flags {
			e.AccumulateIn(f.V, int(f.Src))
		}
	}
	return tr
}

// engineState is the engine's whole label and schedule state, floats as
// bits, for comparing a reset engine with a new one: the labels, the
// unsent bits, the vertex records, the calendar's rounds in collection
// order, the sync log with its run ends, the backward schedule and the
// counters. The chunk pool and the sort's slots are storage, not state.
type engineState struct {
	Dist              []uint32
	Sigma, Delta      []uint64
	Unsent            []uint64
	Sched             []vertexSched
	Calendar          [][]uint32
	NextHint          int32
	Log               []uint32
	LogEnd            []int32
	BackR, BackRounds int
	SortMark          []uint64
	Pending           int64
	FwdRound          int
}

func stateOf(e *Engine) engineState {
	nk := e.n * e.k
	st := engineState{
		Dist:       append([]uint32(nil), e.dist...),
		Sigma:      make([]uint64, nk),
		Delta:      make([]uint64, nk),
		Unsent:     make([]uint64, e.n*e.wps),
		Sched:      append([]vertexSched(nil), e.vs...),
		NextHint:   e.nextHint,
		Log:        append([]uint32(nil), e.syncLog...),
		LogEnd:     append([]int32(nil), e.logEnd...),
		BackR:      e.backR,
		BackRounds: e.backRounds,
		SortMark:   make([]uint64, bitset.WordsFor(e.n)),
		Pending:    e.pending,
		FwdRound:   e.fwdRound,
	}
	// Slabs construction deferred read as what they will be made as: zero.
	copy(st.Unsent, e.unsent)
	copy(st.SortMark, e.sortMark)
	for i := range e.sigma {
		st.Sigma[i] = math.Float64bits(e.sigma[i])
		st.Delta[i] = math.Float64bits(e.delta[i])
	}
	for _, b := range e.buckets {
		var round []uint32
		for c := b.head; c != nil; c = c.next {
			round = append(round, c.v[:c.n]...)
		}
		st.Calendar = append(st.Calendar, round)
	}
	return st
}

func randomBatch(rng *rand.Rand, n, k int) []uint32 {
	batch := make([]uint32, k)
	for i, s := range rng.Perm(n)[:k] {
		batch[i] = uint32(s)
	}
	return batch
}

// TestEngineResetMatchesFresh is the reuse pin: whatever batch an
// engine ran before — to completion, abandoned mid-forward, or abandoned
// after StartBackward — Reset(k') leaves it indistinguishable from
// NewEngine(g, k'): the next batch emits the same flags in the
// same order every round, and ends in the same label bits.
func TestEngineResetMatchesFresh(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(90)
		b := graph.NewBuilder(n)
		for i := 0; i < rng.Intn(5*n); i++ {
			b.AddEdge(uint32(rng.Intn(n)), uint32(rng.Intn(n)))
		}
		g := b.Build()
		kmax := 1 + rng.Intn(n) // above 64 about one time in four: multi-word bit rows
		e := NewEngine(g, kmax)

		a := randomBatch(rng, n, 1+rng.Intn(kmax))
		if len(a) < kmax || rng.Intn(2) == 0 {
			e.Reset(len(a))
		}
		switch rng.Intn(3) {
		case 0:
			driveBatch(e, a, -1, -1)
		case 1:
			driveBatch(e, a, 1+rng.Intn(4), -1) // abandoned mid-forward
		case 2:
			driveBatch(e, a, 1+rng.Intn(4), rng.Intn(3)) // StartBackward on a half-run batch
		}

		bb := randomBatch(rng, n, 1+rng.Intn(kmax))
		e.Reset(len(bb))
		fresh := NewEngine(g, len(bb))
		if gs, ws := stateOf(e), stateOf(fresh); !reflect.DeepEqual(gs, ws) {
			t.Logf("seed %d: state after Reset differs\n reset %+v\n fresh %+v", seed, gs, ws)
			return false
		}
		got, want := driveBatch(e, bb, -1, -1), driveBatch(fresh, bb, -1, -1)
		if !reflect.DeepEqual(got, want) {
			t.Logf("seed %d: rounds diverge\n reset %+v\n fresh %+v", seed, got, want)
			return false
		}
		if gs, ws := stateOf(e), stateOf(fresh); !reflect.DeepEqual(gs, ws) {
			t.Logf("seed %d: final state differs\n reset %+v\n fresh %+v", seed, gs, ws)
			return false
		}
		return true
	}
	count := 400
	if testing.Short() {
		count = 100
	}
	if err := quick.Check(f, &quick.Config{MaxCount: count}); err != nil {
		t.Fatal(err)
	}
}

// TestEngineResetRejectsLargerBatch: the slabs hold the construction
// batch size and no more.
func TestEngineResetRejectsLargerBatch(t *testing.T) {
	e := NewEngine(gen.Path(4), 3)
	e.Reset(2)
	e.Reset(3)
	for _, k := range []int{0, 4} {
		if msg := panicMessage(func() { e.Reset(k) }); !strings.Contains(msg, "outside [1,3]") {
			t.Fatalf("Reset(%d) panicked %q", k, msg)
		}
	}
}

func panicMessage(f func()) (msg string) {
	defer func() {
		if v := recover(); v != nil {
			msg = fmt.Sprint(v)
		}
	}()
	f()
	return ""
}

// TestEngineSourceIndexOutOfRangePanics: in a flat v·k+s slab an
// out-of-range source would read or write the neighbouring vertex's
// labels, so every public entry point must refuse it — also at a stride
// below the construction batch size, where the slab itself is longer.
func TestEngineSourceIndexOutOfRangePanics(t *testing.T) {
	g := gen.Path(4)
	e := NewEngine(g, 8)
	e.Reset(5)
	e.InitSource(1, 0, true)
	calls := map[string]func(s int){
		"Get":             func(s int) { e.Get(1, s) },
		"InitSource":      func(s int) { e.InitSource(2, s, true) },
		"ApplySync":       func(s int) { e.ApplySync(1, s, 0, 1, 1) },
		"MergePartial":    func(s int) { e.MergePartial(1, s, 3, 1) },
		"RelaxOutLocal":   func(s int) { e.RelaxOutLocal(1, s) },
		"AccumulateIn":    func(s int) { e.AccumulateIn(1, s) },
		"AddDeltaPartial": func(s int) { e.AddDeltaPartial(1, s, 1) },
		"DeltaPartial":    func(s int) { e.DeltaPartial(1, s) },
		"ApplyDeltaSync":  func(s int) { e.ApplyDeltaSync(1, s, 1) },
	}
	before := stateOf(e)
	for name, call := range calls {
		for _, s := range []int{5, 7, -1} {
			if msg := panicMessage(func() { call(s) }); !strings.Contains(msg, "source index") {
				t.Errorf("%s(s=%d) panicked %q, want a source-index panic", name, s, msg)
			}
		}
	}
	if !reflect.DeepEqual(stateOf(e), before) {
		t.Fatal("a rejected call changed engine state")
	}
}

// runBatchNoAlloc runs one batch to completion the way batchLoop.run
// does, allocating nothing once every slice has grown.
func runBatchNoAlloc(e *Engine, batch []uint32, flags *[]Flag) {
	var stats RunStats
	for i, s := range batch {
		e.InitSource(s, i, true)
	}
	R := forwardPhase(e, flags, &stats)
	e.StartBackward(R)
	for r := 1; r <= e.BackwardRounds(); r++ {
		*flags = e.BackwardFlags(r, (*flags)[:0])
		for _, f := range *flags {
			e.AccumulateIn(f.V, int(f.Src))
		}
	}
}

// TestEngineResetAllocs: a warm engine runs batch after batch without
// allocating — Reset included — at one- and two-word bit rows.
func TestEngineResetAllocs(t *testing.T) {
	g := gen.RMAT(8, 8, 11)
	for _, k := range []int{16, 80} {
		batch := brandes.FirstKSources(g, 0, k)
		e := NewEngine(g, k)
		var flags []Flag
		runBatchNoAlloc(e, batch, &flags)
		allocs := testing.AllocsPerRun(5, func() {
			e.Reset(k)
			runBatchNoAlloc(e, batch, &flags)
		})
		if allocs != 0 {
			t.Errorf("k=%d: %v allocs per reset+batch on a warm engine, want 0", k, allocs)
		}
	}
}

// footprint returns the bytes the engine owns: every slab and scheduler
// slice at its capacity, and every calendar chunk, pooled or in a
// bucket.
func footprint(e *Engine) (labels, schedule int) {
	size := func(n int, elem uintptr) int { return n * int(elem) }
	labels = size(cap(e.dist), 4) + size(cap(e.sigma), 8) + size(cap(e.delta), 8) + size(cap(e.syncLog), 4)
	schedule = size(cap(e.vs), unsafe.Sizeof(vertexSched{})) + size(cap(e.unsent), 8) +
		size(cap(e.logEnd), 4) + size(cap(e.sortSlot), 4) + size(cap(e.sortMark), 8) +
		size(cap(e.buckets), unsafe.Sizeof(bucket{}))
	chunks := func(c *chunk) {
		for ; c != nil; c = c.next {
			schedule += int(unsafe.Sizeof(chunk{}))
		}
	}
	chunks(e.freeChunks)
	for _, b := range e.buckets {
		chunks(b.head)
	}
	return labels, schedule
}

// TestEngineMemoryBudget pins the engine's stated memory budget
// (DESIGN.md §5, "Engine label layout"): 24 bytes of fixed slabs per
// (vertex · source) — dist, σ, δ and the sync log (a 4-byte pair index,
// made for every pair) — and, after a full batch, at most
// (20 + 8·⌈k/64⌉)/k more for the per-vertex record, the sort slot and
// the unsent bits, with one byte of slack for the calendar's chunks, the
// run ends and the sort's vertex bits.
func TestEngineMemoryBudget(t *testing.T) {
	if unsafe.Sizeof(vertexSched{}) != 16 {
		t.Fatalf("vertex record is %d bytes, budget assumes 16", unsafe.Sizeof(vertexSched{}))
	}
	if labelBytesPerPair != 24 {
		t.Fatalf("labelBytesPerPair is %d, the fixed slabs hold 24 bytes per (vertex·source)", labelBytesPerPair)
	}
	g := gen.RMAT(10, 8, 3)
	n := g.NumVertices()
	for _, k := range []int{32, 64} {
		e := NewEngine(g, k)
		if labels, _ := footprint(e); labels != 4*n*k || e.unsent != nil {
			t.Errorf("k=%d: construction made %d label bytes and unsent %v, want dist alone (%d)", k, labels, e.unsent != nil, 4*n*k)
		}
		var flags []Flag
		runBatchNoAlloc(e, brandes.FirstKSources(g, 0, k), &flags)
		labels, schedule := footprint(e)
		if labels != labelBytesPerPair*n*k {
			t.Errorf("k=%d: %d label bytes, want %d per (vertex·source) = %d", k, labels, labelBytesPerPair, labelBytesPerPair*n*k)
		}
		perPair := float64(schedule) / float64(n*k)
		if limit := float64(20+8*bitset.WordsFor(k))/float64(k) + 1; perPair > limit {
			t.Errorf("k=%d: schedule state is %.2f bytes per (vertex·source), budget %.2f", k, perPair, limit)
		}
		t.Logf("k=%d: %.2f bytes per (vertex·source), %.2f of them schedule", k, float64(labels+schedule)/float64(n*k), perPair)
	}
}

// TestParallelBatchesMergeEveryStat: BC with Parallelism > 1 must merge
// every RunStats field of its per-worker loops, each batch's counters
// once.
func TestParallelBatchesMergeEveryStat(t *testing.T) {
	g := gen.RMAT(10, 8, 17)
	sources := brandes.FirstKSources(g, 0, 48)
	opts := Options{BatchSize: 16, Parallelism: 2}

	// Ground truth: every batch on a loop of its own, summed.
	var want RunStats
	for start := 0; start < len(sources); start += opts.BatchSize {
		_, s := BC(g, sources[start:start+opts.BatchSize], opts)
		want.add(s)
	}
	if _, got := BC(g, sources, opts); got != want {
		t.Errorf("Parallelism=%d: stats %+v, want %+v", opts.Parallelism, got, want)
	}
}

// BenchmarkSharedRMAT is the in-tree twin of the rmat_shared workload,
// one row per plan: the default, the serial loop, and two whole-batch
// engines.
func BenchmarkSharedRMAT(b *testing.B) {
	g := gen.RMAT(13, 14, 1)
	sources := brandes.FirstKSources(g, 0, 256)
	for _, row := range []struct {
		name string
		par  int
	}{{"plan=auto", 0}, {"serial", 1}, {"batch=2", 2}} {
		b.Run(row.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, _ = BC(g, sources, Options{BatchSize: 32, Parallelism: row.par})
			}
		})
	}
}

// BenchmarkSharedBatchSize runs the serial loop at three batch sizes,
// 2k sources each: 32, the default; 128, the largest any product path
// picks (AutotuneBatch, BatchSweep); and 512, where the first-unsent
// scan reads eight-word bit rows.
func BenchmarkSharedBatchSize(b *testing.B) {
	g := gen.RMAT(12, 14, 1)
	for _, k := range []int{32, 128, 512} {
		sources := brandes.FirstKSources(g, 0, 2*k)
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, _ = BC(g, sources, Options{BatchSize: k, Parallelism: 1})
			}
		})
	}
}

var benchEngine *Engine

func BenchmarkNewEngine(b *testing.B) {
	g := gen.RMAT(13, 14, 1)
	g.EnsureInEdges()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchEngine = NewEngine(g, 32)
	}
}

// BenchmarkEngineReset times Reset on an engine a full batch has
// dirtied; the batch itself runs with the timer stopped.
func BenchmarkEngineReset(b *testing.B) {
	g := gen.RMAT(13, 14, 1)
	batch := brandes.FirstKSources(g, 0, 32)
	e := NewEngine(g, 32)
	var flags []Flag
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		runBatchNoAlloc(e, batch, &flags)
		b.StartTimer()
		e.Reset(32)
	}
}

// BenchmarkEngineStartBackward times the per-batch build of the
// backward schedule (n = 8 192, k = 32): sorting every forward round's
// run of the sync log. The forward phase runs once; each iteration
// restores the log as ApplySync left it, with the timer stopped.
func BenchmarkEngineStartBackward(b *testing.B) {
	g := gen.RMAT(13, 14, 1)
	e := NewEngine(g, 32)
	for i, s := range brandes.FirstKSources(g, 0, 32) {
		e.InitSource(s, i, true)
	}
	var flags []Flag
	var stats RunStats
	R := forwardPhase(e, &flags, &stats)
	unsorted := append([]uint32(nil), e.syncLog...)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		copy(e.syncLog, unsorted)
		b.StartTimer()
		e.StartBackward(R)
	}
	b.ReportMetric(float64(len(unsorted)), "pairs")
}

// TestEngineInvariantPanics drives each label-protocol violation the
// engine guards against through the public API and checks it is still
// refused, by name, on the flat layout.
func TestEngineInvariantPanics(t *testing.T) {
	// Path 0 -> 1 -> 2; source 0 at vertex 0, synchronized in round 1.
	synced := func() *Engine {
		e := NewEngine(gen.Path(3), 2)
		e.InitSource(0, 0, true)
		e.ApplySync(0, 0, 0, 1, 1)
		return e
	}
	cases := []struct {
		want string
		call func()
	}{
		{"batch size must be positive", func() { NewEngine(gen.Path(3), -1) }},
		{"already initialized", func() { e := synced(); e.InitSource(0, 0, true) }},
		{"synchronized twice", func() { e := synced(); e.ApplySync(0, 0, 0, 1, 2) }},
		{"worse than local", func() { e := synced(); e.MergePartial(1, 0, 1, 0); e.ApplySync(1, 0, 2, 1, 2) }},
		{"late sigma contribution", func() { e := synced(); e.applyRelax(0, 0, 0, 1) }},
		{"improvement for sent entry", func() {
			e := synced()
			e.ApplySync(1, 0, 3, 1, 4)
			e.RelaxOutLocal(0, 0) // reaches vertex 1 at distance 1 < 3
		}},
		{"partial for already-synchronized", func() { e := synced(); e.MergePartial(0, 0, 0, 1) }},
		{"improvement for already-synchronized", func() { e := synced(); e.ApplySync(1, 0, 3, 1, 4); e.MergePartial(1, 0, 2, 1) }},
		{"zero sigma", func() { e := synced(); e.MergePartial(1, 0, 1, 0); e.AccumulateIn(1, 0) }},
		{"scheduled into past round", func() {
			e := synced()
			e.ForwardFlags(5, nil)
			e.MergePartial(1, 0, 1, 0) // due in round 2
		}},
		{"without a distance", func() { e := synced(); e.ApplySync(1, 0, graph.InfDist, 0, 2) }},
		{"in round 2 after round 3", func() { e := synced(); e.ApplySync(1, 0, 1, 1, 3); e.ApplySync(2, 0, 2, 1, 2) }},
		{"vertex 0 synchronized twice in round 1", func() {
			e := NewEngine(gen.Path(3), 2)
			e.InitSource(0, 0, true)
			e.InitSource(0, 1, true)
			e.ApplySync(0, 1, 0, 1, 1)
			e.ApplySync(0, 0, 0, 1, 1)
			e.StartBackward(1)
		}},
		{"backward phase after 0 forward rounds", func() { e := synced(); e.StartBackward(0) }},
		{"scheduler desync", func() {
			e := NewEngine(gen.Path(3), 2)
			e.InitSource(0, 0, true)
			e.vs[0].sentCount++ // corrupt: bucket 1 now disagrees with the derived round
			e.ForwardFlags(1, nil)
		}},
	}
	for _, c := range cases {
		if msg := panicMessage(c.call); !strings.Contains(msg, c.want) {
			t.Errorf("want a panic naming %q, got %q", c.want, msg)
		}
	}
}
