package obs

import (
	"bytes"
	"io"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

func TestNilTraceIsSafeAndDisabled(t *testing.T) {
	var tr *Trace
	if tr.Enabled() || tr.Detail() {
		t.Fatal("nil trace reports enabled")
	}
	tr.Emit(Event{Kind: KindPhase})
	tr.Reset()
	if tr.Emitted() != 0 || tr.Dropped() != 0 || tr.Events() != nil {
		t.Fatal("nil trace retained state")
	}
}

func TestTraceRingWrapAndOrder(t *testing.T) {
	tr := NewTrace(4, LevelDetail)
	if !tr.Enabled() || !tr.Detail() {
		t.Fatal("trace not enabled at detail")
	}
	for i := 0; i < 6; i++ {
		tr.Emit(Event{Kind: KindRound, Round: int32(i)})
	}
	if tr.Emitted() != 6 || tr.Dropped() != 2 {
		t.Fatalf("emitted %d dropped %d, want 6/2", tr.Emitted(), tr.Dropped())
	}
	got := tr.Events()
	if len(got) != 4 {
		t.Fatalf("retained %d events", len(got))
	}
	for i, e := range got {
		if int(e.Round) != i+2 {
			t.Fatalf("event %d has round %d, want %d (oldest-first order)", i, e.Round, i+2)
		}
	}
	tr.Reset()
	if tr.Emitted() != 0 || len(tr.Events()) != 0 {
		t.Fatal("reset did not clear")
	}
}

func TestEmitAllocationFree(t *testing.T) {
	tr := NewTrace(1024, LevelDetail)
	allocs := testing.AllocsPerRun(100, func() {
		tr.Emit(Event{Kind: KindPhase, Phase: PhasePack, Host: 3, Bytes: 128, Messages: 2})
	})
	if allocs != 0 {
		t.Fatalf("Emit allocates %.1f objects/op, want 0", allocs)
	}
}

func TestEmitConcurrent(t *testing.T) {
	tr := NewTrace(1<<12, LevelPhase)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				tr.Emit(Event{Kind: KindPhase, Host: int32(g), Round: int32(i)})
			}
		}(g)
	}
	wg.Wait()
	if tr.Emitted() != 800 || tr.Dropped() != 0 {
		t.Fatalf("emitted %d dropped %d", tr.Emitted(), tr.Dropped())
	}
	perHost := make(map[int32]int)
	for _, e := range tr.Events() {
		perHost[e.Host]++
	}
	for g := int32(0); g < 8; g++ {
		if perHost[g] != 100 {
			t.Fatalf("host %d retained %d events, want 100", g, perHost[g])
		}
	}
}

func TestRegistryInstruments(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("bytes_total")
	c.Add(40)
	c.Inc()
	if r.Counter("bytes_total") != c {
		t.Fatal("counter not shared by name")
	}
	if c.Load() != 41 {
		t.Fatalf("counter = %d", c.Load())
	}
	g := r.Gauge("hosts")
	g.Set(8)
	h := r.Histogram("compute_seconds", DurationBuckets)
	h.Observe(0.5e-6) // first bucket
	h.Observe(0.05)   // below 1e-1
	h.Observe(100)    // +Inf bucket

	s := r.Snapshot()
	if s.Counters["bytes_total"] != 41 || s.Gauges["hosts"] != 8 {
		t.Fatalf("snapshot = %+v", s)
	}
	hs := s.Histograms["compute_seconds"]
	if hs.Count != 3 || hs.Sum != 0.5e-6+0.05+100 {
		t.Fatalf("histogram snapshot = %+v", hs)
	}
	if len(hs.Counts) != len(hs.Bounds)+1 {
		t.Fatalf("bucket count mismatch: %d counts for %d bounds", len(hs.Counts), len(hs.Bounds))
	}
	if hs.Counts[0] != 1 || hs.Counts[len(hs.Counts)-1] != 1 {
		t.Fatalf("bucket placement wrong: %v", hs.Counts)
	}
	var total int64
	for _, n := range hs.Counts {
		total += n
	}
	if total != hs.Count {
		t.Fatalf("bucket counts sum to %d, count is %d", total, hs.Count)
	}
}

func TestNilRegistrySafe(t *testing.T) {
	var r *Registry
	r.Counter("x").Add(1)
	r.Gauge("y").Set(2)
	r.Histogram("z", DurationBuckets).Observe(1)
	s := r.Snapshot()
	if s.Counters != nil || s.Gauges != nil || s.Histograms != nil {
		t.Fatalf("nil registry snapshot not empty: %+v", s)
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := newHistogram([]float64{1, 2})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(1.5)
			}
		}()
	}
	wg.Wait()
	if h.count.Load() != 4000 {
		t.Fatalf("count = %d", h.count.Load())
	}
}

func sampleEvents() []Event {
	return []Event{
		{Kind: KindPhase, Seq: 1, Round: 1, Host: 0, Phase: PhaseCompute, StartNs: 10, DurNs: 5},
		{Kind: KindPhase, Seq: 2, Round: 1, Host: 0, Phase: PhasePack, Bytes: 64, Messages: 2, Sparse: 2, StartNs: 15, DurNs: 3},
		{Kind: KindPhase, Seq: 3, Round: 1, Host: 1, Phase: PhaseUnpack, Bytes: 64, Messages: 2, StartNs: 18, DurNs: 2},
		{Kind: KindSend, Batch: 0, Round: 1, Host: 1, Dir: DirForward, V: 7, Src: 0},
		{Kind: KindSend, Batch: 0, Round: 2, Host: 1, Dir: DirBackward, V: 7, Src: 0},
		{Kind: KindTransport, Seq: 3, Round: 1, Host: -1, Retries: 1, RetryBytes: 80},
		{Kind: KindBatch, Batch: 0, Host: -1, K: 1, FwdRounds: 2, BackRounds: 2},
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	events := sampleEvents()
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, events); err != nil {
		t.Fatal(err)
	}
	got, err := ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(events) {
		t.Fatalf("round-tripped %d of %d events", len(got), len(events))
	}
	for i := range events {
		if got[i] != events[i] {
			t.Fatalf("event %d changed: %+v -> %+v", i, events[i], got[i])
		}
	}
}

func TestReadEventsRejectsGarbage(t *testing.T) {
	_, err := ReadEvents(strings.NewReader("{\"kind\":\"phase\"}\nnot json\n"))
	if err == nil {
		t.Fatal("expected parse error")
	}
}

func TestCanonicalIsOrderInvariantAndStripsTimings(t *testing.T) {
	events := sampleEvents()
	shuffled := append([]Event(nil), events...)
	rand.New(rand.NewSource(42)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	var a, b bytes.Buffer
	if err := WriteCanonical(&a, events); err != nil {
		t.Fatal(err)
	}
	if err := WriteCanonical(&b, shuffled); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("canonical form depends on emission order")
	}
	for _, e := range Canonical(events) {
		if e.StartNs != 0 || e.DurNs != 0 {
			t.Fatal("canonical form retains wall-clock fields")
		}
	}
}

func TestModelEventsDropsTransport(t *testing.T) {
	events := sampleEvents()
	model := ModelEvents(events)
	if len(model) != len(events)-1 {
		t.Fatalf("model stream has %d events, want %d", len(model), len(events)-1)
	}
	for _, e := range model {
		if e.Kind == KindTransport {
			t.Fatal("transport event survived the model filter")
		}
	}
}

func TestSumTotals(t *testing.T) {
	got := Sum(sampleEvents())
	want := Totals{
		PackBytes: 64, PackMessages: 2, UnpackBytes: 64, UnpackMessages: 2,
		Sparse:  2,
		Retries: 1, RetryBytes: 80,
	}
	if got != want {
		t.Fatalf("Sum = %+v, want %+v", got, want)
	}
}

func TestCheckRoundBoundsAcceptsSample(t *testing.T) {
	if err := CheckRoundBounds(sampleEvents(), 2); err != nil {
		t.Fatal(err)
	}
}

func TestCheckRoundBoundsViolations(t *testing.T) {
	base := sampleEvents()
	cases := []struct {
		name   string
		mutate func([]Event) []Event
	}{
		{"batch over bound", func(ev []Event) []Event {
			for i := range ev {
				if ev[i].Kind == KindBatch {
					ev[i].FwdRounds = 40
				}
			}
			return ev
		}},
		{"forward send past k+H", func(ev []Event) []Event {
			return append(ev, Event{Kind: KindSend, Batch: 0, Round: 30, Dir: DirForward, V: 9})
		}},
		{"backward send past span", func(ev []Event) []Event {
			return append(ev, Event{Kind: KindSend, Batch: 0, Round: 3, Dir: DirBackward, V: 9})
		}},
		{"send without batch summary", func(ev []Event) []Event {
			return append(ev, Event{Kind: KindSend, Batch: 5, Round: 1, Dir: DirForward, V: 9})
		}},
		{"no batch events", func(ev []Event) []Event {
			var out []Event
			for _, e := range ev {
				if e.Kind != KindBatch {
					out = append(out, e)
				}
			}
			return out
		}},
	}
	for _, tc := range cases {
		events := tc.mutate(append([]Event(nil), base...))
		if err := CheckRoundBounds(events, 2); err == nil {
			t.Errorf("%s: violation not detected", tc.name)
		}
	}
}

func TestCheckReversalAcceptsSample(t *testing.T) {
	if err := CheckReversal(sampleEvents()); err != nil {
		t.Fatal(err)
	}
}

func TestCheckReversalViolations(t *testing.T) {
	base := sampleEvents()
	cases := []struct {
		name   string
		mutate func([]Event) []Event
	}{
		{"wrong backward round", func(ev []Event) []Event {
			for i := range ev {
				if ev[i].Kind == KindSend && ev[i].Dir == DirBackward {
					ev[i].Round = 1 // R−τ+1 is 2
				}
			}
			return ev
		}},
		{"missing backward send", func(ev []Event) []Event {
			var out []Event
			for _, e := range ev {
				if e.Kind == KindSend && e.Dir == DirBackward {
					continue
				}
				out = append(out, e)
			}
			return out
		}},
		{"missing forward send", func(ev []Event) []Event {
			var out []Event
			for _, e := range ev {
				if e.Kind == KindSend && e.Dir == DirForward {
					continue
				}
				out = append(out, e)
			}
			return out
		}},
		{"duplicate forward send", func(ev []Event) []Event {
			return append(ev, Event{Kind: KindSend, Batch: 0, Round: 2, Dir: DirForward, V: 7, Src: 0})
		}},
		{"no sends at all", func(ev []Event) []Event {
			var out []Event
			for _, e := range ev {
				if e.Kind != KindSend {
					out = append(out, e)
				}
			}
			return out
		}},
	}
	for _, tc := range cases {
		events := tc.mutate(append([]Event(nil), base...))
		if err := CheckReversal(events); err == nil {
			t.Errorf("%s: violation not detected", tc.name)
		}
	}
}

func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: no panic", name)
		}
	}()
	fn()
}

func TestRegistryRejectsInvalidNames(t *testing.T) {
	r := NewRegistry()
	for _, bad := range []string{"", "with-dash", "with space", "9starts_with_digit", "é"} {
		bad := bad
		mustPanic(t, "counter "+bad, func() { r.Counter(bad) })
		mustPanic(t, "gauge "+bad, func() { r.Gauge(bad) })
		mustPanic(t, "histogram "+bad, func() { r.Histogram(bad, DurationBuckets) })
		mustPanic(t, "countervec "+bad, func() { r.CounterVec(bad, "host", 1) })
		mustPanic(t, "gaugevec "+bad, func() { r.GaugeVec(bad, "host", 1) })
	}
	for _, ok := range []string{"a", "_x", "ns:sub:total", "Mixed_Case9"} {
		r.Counter(ok) // must not panic
	}
	mustPanic(t, "bad label", func() { r.CounterVec("ok_name", "with:colon", 1) })
	mustPanic(t, "empty label", func() { r.GaugeVec("ok_name2", "", 1) })
}

func TestRegistryRejectsCrossKindReuse(t *testing.T) {
	r := NewRegistry()
	r.Counter("volume_total")
	mustPanic(t, "counter->gauge", func() { r.Gauge("volume_total") })
	mustPanic(t, "counter->histogram", func() { r.Histogram("volume_total", DurationBuckets) })
	mustPanic(t, "counter->countervec", func() { r.CounterVec("volume_total", "host", 1) })
	r.GaugeVec("host_round", "host", 2)
	mustPanic(t, "gaugevec->gauge", func() { r.Gauge("host_round") })
	// Same-kind re-resolution stays legal.
	r.Counter("volume_total").Inc()
	r.GaugeVec("host_round", "host", 4)
}

func TestVecInstruments(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("host_bytes_total", "host", 2)
	if cv.Len() != 2 {
		t.Fatalf("len = %d, want 2", cv.Len())
	}
	p0 := cv.At(0)
	p0.Add(5)
	// Re-resolving grows in place and keeps earlier pointers valid.
	cv2 := r.CounterVec("host_bytes_total", "host", 4)
	if cv2 != cv || cv.Len() != 4 {
		t.Fatalf("grow-on-reuse broken: %p vs %p, len %d", cv2, cv, cv.Len())
	}
	if cv.At(0) != p0 {
		t.Fatal("growth invalidated an instrument pointer")
	}
	cv.At(3).Add(7)
	// Requesting a smaller size never shrinks.
	if r.CounterVec("host_bytes_total", "host", 1).Len() != 4 {
		t.Fatal("vector shrank")
	}
	gv := r.GaugeVec("host_round", "host", 3)
	gv.At(1).Set(9)

	s := r.Snapshot()
	cs := s.CounterVecs["host_bytes_total"]
	if cs.Label != "host" || len(cs.Values) != 4 || cs.Values[0] != 5 || cs.Values[3] != 7 {
		t.Fatalf("counter vec snapshot = %+v", cs)
	}
	gs := s.GaugeVecs["host_round"]
	if gs.Label != "host" || len(gs.Values) != 3 || gs.Values[1] != 9 {
		t.Fatalf("gauge vec snapshot = %+v", gs)
	}
}

func TestNilRegistryVecsSafe(t *testing.T) {
	var r *Registry
	r.CounterVec("x", "host", 2).At(1).Add(1)
	r.GaugeVec("y", "host", 2).At(0).Set(1)
	if s := r.Snapshot(); s.CounterVecs != nil || s.GaugeVecs != nil {
		t.Fatalf("nil registry vec snapshot not empty: %+v", s)
	}
}

func TestEventReaderStreams(t *testing.T) {
	events := sampleEvents()
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, events); err != nil {
		t.Fatal(err)
	}
	// A transport event recorded when events still carried framing, ack
	// and delivery-step counters loads with those keys ignored.
	buf.WriteString(`{"kind":"transport","seq":9,"host":-1,"retries":2,"retry_bytes":40,` +
		`"frame_bytes":32,"ack_messages":2,"ack_bytes":24,"steps":3,"injected":1,"stalled":1}` + "\n")
	events = append(events, Event{Kind: KindTransport, Seq: 9, Host: -1, Retries: 2, RetryBytes: 40})
	// Blank lines are tolerated mid-stream.
	text := strings.Replace(buf.String(), "\n", "\n\n", 1)
	er := NewEventReader(strings.NewReader(text))
	var got []Event
	for {
		e, err := er.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, e)
	}
	if len(got) != len(events) {
		t.Fatalf("streamed %d of %d events", len(got), len(events))
	}
	for i := range events {
		if got[i] != events[i] {
			t.Fatalf("event %d changed: %+v -> %+v", i, events[i], got[i])
		}
	}
}

func TestEventReaderReportsLineNumber(t *testing.T) {
	er := NewEventReader(strings.NewReader("{\"kind\":\"phase\"}\n{\"kind\":\"phase\"}\nnot json\n"))
	var err error
	for err == nil {
		_, err = er.Next()
	}
	if err == io.EOF || err == nil {
		t.Fatal("garbage line not rejected")
	}
	if !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("error does not name line 3: %v", err)
	}
}

// TestCheckRoundBoundsInfersHPerEpoch pins the inference for h ≤ 0: H
// is the largest FwdRounds − K among one epoch's batches, so a batch
// that fits the H of an earlier, deeper epoch still fails in its own.
func TestCheckRoundBoundsInfersHPerEpoch(t *testing.T) {
	deep := Event{Kind: KindBatch, Host: -1, K: 4, FwdRounds: 10, BackRounds: 10}
	flat := Event{Kind: KindBatch, Batch: 1, Host: -1, K: 4, FwdRounds: 7, BackRounds: 12}
	long := flat
	long.Epoch = 1
	if err := CheckRoundBounds([]Event{deep}, 0); err != nil {
		t.Fatalf("inferred H rejected a batch at its own bound: %v", err)
	}
	// One epoch: H = 6 admits 7+12+1 = 20 ≤ 2(4+6)+1.
	if err := CheckRoundBounds([]Event{deep, flat}, 0); err != nil {
		t.Fatalf("single epoch: %v", err)
	}
	// Two epochs: epoch 1 infers H = 3, and 20 > 2(4+3)+1 = 15.
	err := CheckRoundBounds([]Event{deep, long}, 0)
	if err == nil || !strings.HasPrefix(err.Error(), "epoch 1: ") {
		t.Fatalf("epoch 1's batch not rejected under its own H: %v", err)
	}
	// An explicit H applies to every epoch.
	if err := CheckRoundBounds([]Event{deep, long}, 6); err != nil {
		t.Fatalf("explicit H=6: %v", err)
	}
}

// TestEventReaderToleratesTornTail reads several inputs as one stream:
// an input's last line cut off without a newline ends that input, while
// a malformed line that ends in a newline is an error naming its input
// and line.
func TestEventReaderToleratesTornTail(t *testing.T) {
	read := func(inputs ...string) ([]int64, error) {
		readers := make([]io.Reader, len(inputs))
		for i, s := range inputs {
			readers[i] = strings.NewReader(s)
		}
		er := NewEventReader(readers...)
		var seqs []int64
		for {
			e, err := er.Next()
			if err == io.EOF {
				return seqs, nil
			}
			if err != nil {
				return seqs, err
			}
			seqs = append(seqs, e.Seq)
		}
	}
	seqs, err := read("{\"kind\":\"phase\",\"seq\":1}\n{\"kind\":\"ph", "{\"kind\":\"phase\",\"seq\":2}")
	if err != nil || len(seqs) != 2 || seqs[0] != 1 || seqs[1] != 2 {
		t.Fatalf("torn inputs read as %v, %v; want [1 2], nil", seqs, err)
	}
	_, err = read("{\"kind\":\"phase\",\"seq\":1}\n", "{\"kind\":\"phase\",\"seq\":2}\n{\"kind\":\"ph\n")
	if err == nil || !strings.HasPrefix(err.Error(), "obs: trace 2 line 2: ") {
		t.Fatalf("newline-terminated malformed last line: %v, want an error at trace 2 line 2", err)
	}
}
