package gluon

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mrbc/internal/bitset"
	"mrbc/internal/gen"
	"mrbc/internal/partition"
)

func TestTopologyMirrorMasterListsMatch(t *testing.T) {
	g := gen.RMAT(8, 8, 3)
	pt := partition.CartesianCut(g, 4)
	topo := NewTopology(pt)
	for a := 0; a < 4; a++ {
		for b := 0; b < 4; b++ {
			mir := topo.MirrorList(a, b)
			mas := topo.MasterList(a, b)
			if a == b {
				if len(mir) != 0 {
					t.Fatalf("host %d lists itself as mirror holder", a)
				}
				continue
			}
			if len(mir) != len(mas) {
				t.Fatalf("(%d,%d): list lengths %d vs %d", a, b, len(mir), len(mas))
			}
			for i := range mir {
				gidMirror := pt.Parts[a].GlobalID[mir[i]]
				gidMaster := pt.Parts[b].GlobalID[mas[i]]
				if gidMirror != gidMaster {
					t.Fatalf("(%d,%d)[%d]: vertices %d vs %d", a, b, i, gidMirror, gidMaster)
				}
				if pt.MasterOf[gidMirror] != int32(b) {
					t.Fatalf("vertex %d in list for master %d but mastered by %d",
						gidMirror, b, pt.MasterOf[gidMirror])
				}
			}
		}
	}
}

func TestTopologyCoversAllMirrors(t *testing.T) {
	g := gen.ErdosRenyi(200, 1200, 5)
	pt := partition.EdgeCut(g, 3)
	topo := NewTopology(pt)
	for a, p := range pt.Parts {
		mirrors := 0
		for _, m := range p.IsMaster {
			if !m {
				mirrors++
			}
		}
		listed := 0
		for b := 0; b < pt.NumHosts; b++ {
			listed += len(topo.MirrorList(a, b))
		}
		if mirrors != listed {
			t.Fatalf("host %d: %d mirrors but %d listed", a, mirrors, listed)
		}
	}
}

func TestWriterReaderRoundTrip(t *testing.T) {
	w := &Writer{}
	w.U32(42)
	w.F64(3.5)
	w.U64(1 << 40)
	w.Byte(7)
	w.Uvarint(300)
	r := NewReader(w.Bytes())
	if r.U32() != 42 || r.F64() != 3.5 || r.U64() != 1<<40 || r.Byte() != 7 || r.Uvarint() != 300 {
		t.Fatal("round trip failed")
	}
	if r.Remaining() != 0 {
		t.Fatalf("remaining = %d", r.Remaining())
	}
}

func TestReaderTruncationPanics(t *testing.T) {
	r := NewReader([]byte{1, 2})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	r.U32()
}

// encodeWith serializes one update message in the given format (or
// FormatAuto) with one u32 payload per marked position from payload.
func encodeWith(f Format, listLen int, marked *bitset.Set, payload map[int]uint32) []byte {
	w := &Writer{}
	w.force = f
	EncodeUpdates(w, listLen, marked, func(pos int, w *Writer) {
		w.U32(payload[pos])
	})
	return append([]byte(nil), w.Bytes()...)
}

func decodeAll(t *testing.T, listLen int, buf []byte) map[int]uint32 {
	t.Helper()
	got := map[int]uint32{}
	prev := -1
	DecodeUpdates(listLen, buf, func(pos int, r *Reader) {
		if pos <= prev {
			t.Fatalf("apply order not ascending: %d after %d", pos, prev)
		}
		prev = pos
		got[pos] = r.U32()
	})
	return got
}

func TestEncodeDecodeUpdatesAllFormats(t *testing.T) {
	listLen := 100
	marked := bitset.New(listLen)
	marked.Set(3)
	marked.Set(64)
	marked.Set(99)
	payload := map[int]uint32{3: 30, 64: 640, 99: 990}
	for _, f := range []Format{FormatAuto, FormatDense, FormatSparse} {
		buf := encodeWith(f, listLen, marked, payload)
		if len(buf) == 0 {
			t.Fatalf("%v: expected non-empty buffer", f)
		}
		got := decodeAll(t, listLen, buf)
		if len(got) != 3 || got[3] != 30 || got[64] != 640 || got[99] != 990 {
			t.Fatalf("%v: decoded %v", f, got)
		}
	}

	// All-marked: every position updated, zero metadata on the wire.
	full := bitset.New(4)
	full.Fill()
	pay := map[int]uint32{0: 1, 1: 2, 2: 3, 3: 4}
	for _, f := range []Format{FormatAuto, FormatDense, FormatSparse, FormatAll} {
		got := decodeAll(t, 4, encodeWith(f, 4, full, pay))
		if len(got) != 4 || got[2] != 3 {
			t.Fatalf("%v: decoded %v", f, got)
		}
	}
	if n := len(encodeWith(FormatAll, 4, full, pay)); n != 1+4+4*4 {
		t.Fatalf("all-marked message is %d bytes, want header+len+payload only", n)
	}
}

func TestEncodeNothingWritesNothing(t *testing.T) {
	w := &Writer{}
	EncodeUpdates(w, 50, bitset.New(50), func(int, *Writer) {})
	if w.Len() != 0 {
		t.Fatal("empty update set must write nothing (nothing sent)")
	}
	if c := w.TakeCounts(); c.Total() != 0 {
		t.Fatalf("empty encode counted a message: %+v", c)
	}
}

func TestTakeByteCountsMatchesWireLength(t *testing.T) {
	listLen := 100
	marked := bitset.New(listLen)
	marked.Set(3)
	marked.Set(64)
	marked.Set(99)
	payload := map[int]uint32{3: 30, 64: 640, 99: 990}
	full := bitset.New(4)
	full.Fill()
	fullPay := map[int]uint32{0: 1, 1: 2, 2: 3, 3: 4}

	w := &Writer{}
	encode := func(f Format, n int, m *bitset.Set, p map[int]uint32) int {
		before := w.Len()
		w.force = f
		EncodeUpdates(w, n, m, func(pos int, w *Writer) { w.U32(p[pos]) })
		return w.Len() - before
	}
	dense := encode(FormatDense, listLen, marked, payload)
	sparse := encode(FormatSparse, listLen, marked, payload)
	all := encode(FormatAll, 4, full, fullPay)

	bc := w.TakeByteCounts()
	if bc.Dense != int64(dense) || bc.Sparse != int64(sparse) || bc.All != int64(all) {
		t.Fatalf("byte counts %+v, want dense=%d sparse=%d all=%d", bc, dense, sparse, all)
	}
	if bc.Total() != int64(w.Len()) {
		t.Fatalf("byte counts total %d != wire length %d", bc.Total(), w.Len())
	}
	// TakeByteCounts drains: a second call sees zero, and per-format
	// byte tallies agree with the message tallies' chosen formats.
	if again := w.TakeByteCounts(); again.Total() != 0 {
		t.Fatalf("second TakeByteCounts not drained: %+v", again)
	}
	mc := w.TakeCounts()
	if mc.Dense != 1 || mc.Sparse != 1 || mc.All != 1 {
		t.Fatalf("message counts %+v, want one of each format", mc)
	}
}

func TestForceAllWithPartialMarksPanics(t *testing.T) {
	marked := bitset.New(10)
	marked.Set(2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	encodeWith(FormatAll, 10, marked, map[int]uint32{2: 1})
}

func TestDecodeLengthMismatchPanics(t *testing.T) {
	marked := bitset.New(10)
	marked.Set(0)
	buf := encodeWith(FormatAuto, 10, marked, map[int]uint32{0: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	DecodeUpdates(20, buf, func(int, *Reader) {})
}

func TestDecodeTrailingBytesPanics(t *testing.T) {
	for _, f := range []Format{FormatDense, FormatSparse} {
		func() {
			marked := bitset.New(10)
			marked.Set(0)
			w := &Writer{}
			w.force = f
			EncodeUpdates(w, 10, marked, func(pos int, wr *Writer) { wr.U32(1); wr.U32(2) })
			defer func() {
				if recover() == nil {
					t.Errorf("%v: expected panic", f)
				}
			}()
			// Reader consumes only one U32 per position, leaving trailing
			// bytes.
			DecodeUpdates(10, w.Bytes(), func(pos int, r *Reader) { r.U32() })
		}()
	}
}

func TestDecodeUnknownHeaderPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	DecodeUpdates(8, []byte{9, 8, 0, 0, 0}, func(int, *Reader) {})
}

func TestDecodeTruncatedMidVarintPanics(t *testing.T) {
	marked := bitset.New(300)
	marked.Set(200) // first position: a 2-byte varint
	buf := encodeWith(FormatSparse, 300, marked, map[int]uint32{200: 5})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	DecodeUpdates(300, buf[:len(buf)-5], func(int, *Reader) {}) // cut into the varint
}

// TestFormatsEquivalentQuick is the satellite equivalence property: on
// random (listLen, marked, payload) cases, every forced format and the
// adaptive pick decode to the identical applied state, and the adaptive
// encoding is no larger than any forced one.
func TestFormatsEquivalentQuick(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		listLen := 1 + rng.Intn(400)
		marked := bitset.New(listLen)
		payload := map[int]uint32{}
		density := rng.Float64()
		for i := 0; i < listLen; i++ {
			if rng.Float64() < density {
				marked.Set(i)
				payload[i] = rng.Uint32()
			}
		}
		if rng.Intn(4) == 0 { // exercise the all-marked boundary often
			marked.Fill()
			for i := 0; i < listLen; i++ {
				payload[i] = rng.Uint32()
			}
		}
		if marked.None() {
			return len(encodeWith(FormatAuto, listLen, marked, payload)) == 0
		}

		formats := []Format{FormatAuto, FormatDense, FormatSparse}
		if marked.Count() == listLen {
			formats = append(formats, FormatAll)
		}
		var auto []byte
		var ref map[int]uint32
		for _, f := range formats {
			buf := encodeWith(f, listLen, marked, payload)
			got := map[int]uint32{}
			DecodeUpdates(listLen, buf, func(pos int, r *Reader) { got[pos] = r.U32() })
			if len(got) != len(payload) {
				t.Logf("%v: %d positions decoded, want %d", f, len(got), len(payload))
				return false
			}
			for k, v := range payload {
				if got[k] != v {
					t.Logf("%v: payload[%d] = %d, want %d", f, k, got[k], v)
					return false
				}
			}
			if f == FormatAuto {
				auto, ref = buf, got
			} else {
				if len(auto) > len(buf) {
					t.Logf("adaptive %d bytes > forced %v %d bytes", len(auto), f, len(buf))
					return false
				}
				for k := range ref {
					if got[k] != ref[k] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestAdaptivePickerIsMinimal pins the selection rule exactly: the
// adaptive message equals the smallest valid forced encoding byte for
// byte in length (headers cost the same in every format, so comparing
// metadata sizes alone is sufficient).
func TestAdaptivePickerIsMinimal(t *testing.T) {
	cases := []struct {
		name    string
		listLen int
		mark    func(m *bitset.Set)
	}{
		{"single-of-many", 100000, func(m *bitset.Set) { m.Set(77777) }},
		{"few-spread", 4096, func(m *bitset.Set) {
			for i := 0; i < 4096; i += 512 {
				m.Set(i)
			}
		}},
		{"half", 512, func(m *bitset.Set) {
			for i := 0; i < 512; i += 2 {
				m.Set(i)
			}
		}},
		{"all", 1000, func(m *bitset.Set) { m.Fill() }},
		{"tiny-list", 3, func(m *bitset.Set) { m.Set(1) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			marked := bitset.New(tc.listLen)
			tc.mark(marked)
			payload := map[int]uint32{}
			marked.ForEach(func(i int) bool { payload[i] = uint32(i); return true })
			min := -1
			formats := []Format{FormatDense, FormatSparse}
			if marked.Count() == tc.listLen {
				formats = append(formats, FormatAll)
			}
			for _, f := range formats {
				if n := len(encodeWith(f, tc.listLen, marked, payload)); min < 0 || n < min {
					min = n
				}
			}
			if got := len(encodeWith(FormatAuto, tc.listLen, marked, payload)); got != min {
				t.Fatalf("adaptive picked %d bytes, smallest forced is %d", got, min)
			}
		})
	}
}

func TestEncodingCountsTick(t *testing.T) {
	w := &Writer{}
	one := func(mark func(m *bitset.Set), listLen int) {
		w.Reset()
		m := bitset.New(listLen)
		mark(m)
		EncodeUpdates(w, listLen, m, func(pos int, w *Writer) { w.Byte(0) })
	}
	one(func(m *bitset.Set) { m.Set(5) }, 10000)                           // sparse
	one(func(m *bitset.Set) { m.Fill() }, 64)                              // all
	one(func(m *bitset.Set) { m.Set(0); m.Set(2); m.Set(4); m.Set(6) }, 8) // dense-ish tiny list
	c := w.TakeCounts()
	if c.Total() != 3 || c.Sparse != 1 || c.All != 1 || c.Dense != 1 {
		t.Fatalf("counts = %+v", c)
	}
	if w.TakeCounts().Total() != 0 {
		t.Fatal("TakeCounts did not drain")
	}
}

func TestMetadataCompressionAmortizes(t *testing.T) {
	// The §5.3 effect: syncing many proxies in one round costs fewer
	// bytes than syncing them one per round — even with the adaptive
	// encoder shrinking the one-update messages to sparse form, the
	// per-message fixed costs still dominate.
	listLen := 512
	perPayload := 12
	payload := map[int]uint32{}
	for i := 0; i < 64; i++ {
		payload[i*8] = 0
	}

	// One round, 64 updates.
	marked := bitset.New(listLen)
	for i := 0; i < 64; i++ {
		marked.Set(i * 8)
	}
	w := &Writer{}
	EncodeUpdates(w, listLen, marked, func(pos int, w *Writer) { w.U32(0); w.F64(0) })
	batched := w.Len()

	// 64 rounds, one update each.
	spread := 0
	for i := 0; i < 64; i++ {
		m := bitset.New(listLen)
		m.Set(i * 8)
		w.Reset()
		EncodeUpdates(w, listLen, m, func(pos int, w *Writer) { w.U32(0); w.F64(0) })
		spread += w.Len()
	}
	if batched >= spread {
		t.Fatalf("batched sync (%d bytes) should beat spread sync (%d bytes)", batched, spread)
	}
	if batched <= 64*perPayload {
		t.Fatalf("batched bytes %d should still include metadata", batched)
	}
}

// benchMarked builds a marked set at the given stride over listLen.
func benchMarked(listLen, stride int) *bitset.Set {
	m := bitset.New(listLen)
	for i := 0; i < listLen; i += stride {
		m.Set(i)
	}
	return m
}

func benchmarkEncode(b *testing.B, listLen, stride int) {
	marked := benchMarked(listLen, stride)
	w := &Writer{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Reset()
		EncodeUpdates(w, listLen, marked, func(pos int, w *Writer) { w.U64(uint64(pos)) })
	}
}

func BenchmarkEncodeUpdatesSparse(b *testing.B) { benchmarkEncode(b, 1<<16, 1024) }
func BenchmarkEncodeUpdatesDense(b *testing.B)  { benchmarkEncode(b, 1<<16, 2) }
func BenchmarkEncodeUpdatesAll(b *testing.B)    { benchmarkEncode(b, 1<<16, 1) }

func benchmarkDecode(b *testing.B, listLen, stride int) {
	marked := benchMarked(listLen, stride)
	w := &Writer{}
	EncodeUpdates(w, listLen, marked, func(pos int, w *Writer) { w.U64(uint64(pos)) })
	buf := w.Bytes()
	dec := NewDecoder()
	var sink uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dec.DecodeUpdates(listLen, buf, func(pos int, r *Reader) { sink += r.U64() })
	}
	_ = sink
}

func BenchmarkDecodeUpdatesSparse(b *testing.B) { benchmarkDecode(b, 1<<16, 1024) }
func BenchmarkDecodeUpdatesDense(b *testing.B)  { benchmarkDecode(b, 1<<16, 2) }
func BenchmarkDecodeUpdatesAll(b *testing.B)    { benchmarkDecode(b, 1<<16, 1) }

// scanPack is the list-scan pack every engine used to carry, kept as the
// reference for Marks: test one bit per entry of the shared list, then
// EncodeUpdates over the marked positions.
func scanPack(w *Writer, list []uint32, marked *bitset.Set, emit func(lid uint32, w *Writer)) {
	if len(list) == 0 {
		return
	}
	at := bitset.New(len(list))
	for pos, lid := range list {
		if marked.Test(int(lid)) {
			at.Set(pos)
		}
	}
	EncodeUpdates(w, len(list), at, func(pos int, w *Writer) { emit(list[pos], w) })
}

// TestMarksMatchListScanQuick is the property behind the O(marked) packs:
// for random shared lists (random graphs, cuts and host counts) and
// random mark sets — empty, one proxy, all, dense, sparse — packing from
// the mark structure yields, pair by pair and direction by direction, the
// bytes, EncodingCounts and ByteCounts of the list scan, under the
// adaptive picker and every forced format, and leaves the structure
// empty.
func TestMarksMatchListScanQuick(t *testing.T) {
	emit := func(lid uint32, w *Writer) { w.U32(lid ^ 0x9e3779b9) }
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := gen.ErdosRenyi(20+rng.Intn(200), 40+rng.Intn(900), seed)
		hosts := 2 + rng.Intn(4)
		pt := partition.EdgeCut(g, hosts)
		if rng.Intn(2) == 0 {
			pt = partition.CartesianCut(g, hosts)
		}
		topo := NewTopology(pt)
		host := rng.Intn(hosts)
		np := pt.Parts[host].NumProxies()
		marked := bitset.New(np)
		kind := rng.Intn(5)
		switch kind {
		case 1:
			if np > 0 {
				marked.Set(rng.Intn(np))
			}
		case 2:
			marked.Fill()
		case 3, 4:
			density := []float64{0.7, 0.02}[kind-3]
			for l := 0; l < np; l++ {
				if rng.Float64() < density {
					marked.Set(l)
				}
			}
		}
		formats := []Format{FormatAuto, FormatDense, FormatSparse}
		if kind == 2 {
			formats = append(formats, FormatAll)
		}
		marks := topo.NewMarks(host)
		for _, f := range formats {
			marked.ForEach(func(l int) bool {
				marks.Mark(uint32(l))
				marks.Mark(uint32(l)) // marking twice is marking once
				return true
			})
			for peer := 0; peer < hosts; peer++ {
				for dir, list := range [][]uint32{topo.MirrorList(host, peer), topo.MasterList(peer, host)} {
					got, want := &Writer{}, &Writer{}
					got.force = f
					want.force = f
					scanPack(want, list, marked, emit)
					if dir == 0 {
						marks.EncodeReduce(got, peer, emit)
					} else {
						marks.EncodeBroadcast(got, peer, emit)
					}
					if string(got.Bytes()) != string(want.Bytes()) ||
						got.TakeCounts() != want.TakeCounts() || got.TakeByteCounts() != want.TakeByteCounts() {
						t.Logf("seed %d, %v, host %d -> %d, dir %d: %d bytes from the marks, %d from the scan",
							seed, f, host, peer, dir, got.Len(), want.Len())
						return false
					}
				}
			}
			for peer := 0; peer < hosts; peer++ {
				left := &Writer{}
				marks.EncodeReduce(left, peer, emit)
				marks.EncodeBroadcast(left, peer, emit)
				if left.Len() != 0 {
					t.Logf("seed %d: marks for peer %d survived the pack that shipped them", seed, peer)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestMarkReadersMatchInEdgeScanQuick is the property behind the backward
// broadcast: MarkReaders on a random set of masters packs, pair by pair,
// the list scan restricted to the positions whose mirror has local
// in-edges, and marks nothing in the reduce direction. The Cartesian cut
// has mirrors without in-edges; under the edge cut every mirror has one.
func TestMarkReadersMatchInEdgeScanQuick(t *testing.T) {
	emit := func(lid uint32, w *Writer) { w.U32(lid ^ 0x9e3779b9) }
	skipped := 0 // marked masters some peer's mirror does not read
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := gen.ErdosRenyi(20+rng.Intn(200), 40+rng.Intn(900), seed)
		hosts := 2 + rng.Intn(4)
		pt := partition.EdgeCut(g, hosts)
		if rng.Intn(2) == 0 {
			pt = partition.CartesianCut(g, hosts)
		}
		topo := NewTopology(pt)
		host := rng.Intn(hosts)
		np := pt.Parts[host].NumProxies()
		marked := bitset.New(np)
		density := []float64{0.05, 0.5, 1}[rng.Intn(3)]
		for l := 0; l < np; l++ {
			if rng.Float64() < density {
				marked.Set(l)
			}
		}
		marks := topo.NewMarks(host)
		marked.ForEach(func(l int) bool {
			marks.MarkReaders(uint32(l))
			return true
		})
		for peer := 0; peer < hosts; peer++ {
			reduce := &Writer{}
			marks.EncodeReduce(reduce, peer, emit)
			if reduce.Len() != 0 {
				t.Logf("seed %d: MarkReaders marked host %d's reduce to %d", seed, host, peer)
				return false
			}
			// The masters whose mirror on peer reads.
			readers := bitset.New(np)
			mirrors := topo.MirrorList(peer, host)
			for pos, ml := range topo.MasterList(peer, host) {
				if !marked.Test(int(ml)) {
					continue
				}
				if pt.Parts[peer].Local.InDegree(mirrors[pos]) > 0 {
					readers.Set(int(ml))
				} else {
					skipped++
				}
			}
			got, want := &Writer{}, &Writer{}
			scanPack(want, topo.MasterList(peer, host), readers, emit)
			marks.EncodeBroadcast(got, peer, emit)
			if string(got.Bytes()) != string(want.Bytes()) {
				t.Logf("seed %d, host %d -> %d: %d bytes from the marks, %d from the scan", seed, host, peer, got.Len(), want.Len())
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	if skipped == 0 {
		t.Fatal("no marked master had a mirror without in-edges: the property checked nothing")
	}
}

// TestVoteLegs pins the topology's vote route on the cases it must
// tell apart: a Cartesian cut of a power-law graph relays over two legs
// at every host count, an edge cut whose every mirror has local
// in-edges proposes on every link, and a small road grid, where some
// mirrors have no local in-edge, needs the vote on every link under
// either cut.
func TestVoteLegs(t *testing.T) {
	rmat, road := gen.RMAT(11, 7, 1), gen.RoadGrid(5, 5, 1)
	for _, c := range []struct {
		name string
		pt   *partition.Partitioning
		want int
	}{
		{"cartesian/rmat/2", partition.CartesianCut(rmat, 2), 2},
		{"cartesian/rmat/4", partition.CartesianCut(rmat, 4), 2},
		{"cartesian/rmat/6", partition.CartesianCut(rmat, 6), 2},
		{"cartesian/rmat/8", partition.CartesianCut(rmat, 8), 2},
		{"edgecut/rmat/4", partition.EdgeCut(gen.RMAT(7, 8, 1), 4), 1},
		{"cartesian/road/4", partition.CartesianCut(road, 4), 0},
		{"edgecut/road/4", partition.EdgeCut(road, 4), 0},
	} {
		topo := NewTopology(c.pt)
		if got := topo.VoteLegs(); got != c.want {
			t.Errorf("%s: VoteLegs = %d, want %d (%d proposal of %d partner links)",
				c.name, got, c.want, topo.ProposalLinks().Len(), topo.PartnerLinks().Len())
		}
	}
}

// TestPhaseLinksCoverTheirMarksQuick is the property behind the
// per-phase link sets: over random graphs under both cuts, no phase marks
// a position on a link outside its set, so an exchange that sends and
// gathers only on that set loses nothing. The backward reduce marks
// mirrors with local out-edges (only they can hold a nonzero partial,
// which mrbcdist's TestBackwardSyncReachesEveryReader pins), the
// backward broadcast marks through MarkReaders, a forward reduce after
// round 1 marks mirrors with local in-edges (the only ones a relax can
// give a label of their own), and the first forward reduce and every
// forward broadcast mark any proxy and stay on the partner links. The
// sets are also tight: marking every candidate marks every link of the
// set. ProposalLinks is ReaderLinks transposed. Under the Cartesian cut
// some partner links fall outside a backward set, and under the edge cut
// the backward reduce has no link at all.
func TestPhaseLinksCoverTheirMarksQuick(t *testing.T) {
	emit := func(lid uint32, w *Writer) { w.U32(lid) }
	excluded, edgeCuts := 0, 0
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := gen.ErdosRenyi(20+rng.Intn(200), 40+rng.Intn(900), seed)
		hosts := 2 + rng.Intn(4)
		pt := partition.EdgeCut(g, hosts)
		cartesian := rng.Intn(2) == 0
		if cartesian {
			pt = partition.CartesianCut(g, hosts)
		}
		topo := NewTopology(pt)
		partners, partials, readers, proposals := topo.PartnerLinks(), topo.PartialLinks(), topo.ReaderLinks(), topo.ProposalLinks()
		if !cartesian {
			edgeCuts++
			if n := partials.Len(); n != 0 {
				t.Logf("seed %d: the edge cut's backward reduce has %d links, want none", seed, n)
				return false
			}
		}
		for a := 0; a < hosts; a++ {
			for b := 0; b < hosts; b++ {
				if a == b && (partners.Has(a, b) || partials.Has(a, b) || readers.Has(a, b) || proposals.Has(a, b)) {
					t.Logf("seed %d: host %d links to itself", seed, a)
					return false
				}
				if proposals.Has(a, b) != readers.Has(b, a) {
					t.Logf("seed %d: proposal link %d → %d is not reader link %d → %d transposed", seed, a, b, b, a)
					return false
				}
				if partners.Has(a, b) && (!partials.Has(a, b) || !readers.Has(a, b) || !proposals.Has(a, b)) {
					excluded++
				}
			}
		}
		// sent reports which peers host's marks reach in one direction,
		// and empties them.
		sent := func(marks *Marks, reduce bool) []bool {
			out := make([]bool, hosts)
			for peer := range out {
				w := &Writer{}
				if reduce {
					marks.EncodeReduce(w, peer, emit)
				} else {
					marks.EncodeBroadcast(w, peer, emit)
				}
				out[peer] = w.Len() > 0
			}
			return out
		}
		for host := 0; host < hosts; host++ {
			p := pt.Parts[host]
			for _, all := range []bool{false, true} {
				pick := func() bool { return all || rng.Intn(3) == 0 }
				fwd, later, back, bcast := topo.NewMarks(host), topo.NewMarks(host), topo.NewMarks(host), topo.NewMarks(host)
				for l := 0; l < p.NumProxies(); l++ {
					if !pick() {
						continue
					}
					fwd.Mark(uint32(l))
					if p.Local.InDegree(uint32(l)) > 0 {
						later.Mark(uint32(l))
					}
					if p.IsMaster[l] {
						bcast.MarkReaders(uint32(l))
					} else if p.Local.OutDegree(uint32(l)) > 0 {
						back.Mark(uint32(l))
					}
				}
				for _, c := range []struct {
					name  string
					got   []bool
					links *Links
					tight bool // every link of the set is some candidate's
				}{
					{"forward reduce", sent(fwd, true), partners, false},
					{"forward reduce after round 1", sent(later, true), proposals, true},
					{"forward broadcast", sent(fwd, false), partners, false},
					{"backward reduce", sent(back, true), partials, true},
					{"backward broadcast", sent(bcast, false), readers, true},
				} {
					for peer, on := range c.got {
						if on && !c.links.Has(host, peer) {
							t.Logf("seed %d: %s marks %d → %d outside its links", seed, c.name, host, peer)
							return false
						}
						if all && c.tight && !on && c.links.Has(host, peer) {
							t.Logf("seed %d: %s link %d → %d is in the set but nothing marks it", seed, c.name, host, peer)
							return false
						}
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	if excluded == 0 || edgeCuts == 0 {
		t.Fatalf("%d partner links outside a backward set over %d edge cuts: the property checked nothing", excluded, edgeCuts)
	}
}
