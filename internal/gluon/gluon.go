// Package gluon implements the communication substrate the paper's
// implementation is built on (Dathathri et al., PLDI'18), specialized
// to what the BC algorithms need:
//
//   - the proxy topology: for every ordered host pair, the list of
//     vertices with a proxy on the sender whose master is on the
//     receiver (reduce direction) and vice versa (broadcast direction);
//   - update tracking with compressed metadata: a sync message marks
//     which proxies of the pair's shared-vertex list carry updates,
//     followed by one payload per marked proxy. The metadata encoding
//     is density-adaptive ("Gluon ... compresses the metadata that
//     identifies the proxies whose labels are sent", §4.1/§5.3): a
//     dense bitvector when many proxies updated, a varint-delta index
//     list when few did, and no metadata at all when every proxy did.
//     EncodeUpdates picks the smallest encoding per message;
//     DecodeUpdates dispatches on a one-byte format header.
//   - reduce (mirrors -> master) followed by broadcast (master ->
//     mirrors), the all-reduce pattern of §4.1.
//
// Payload encoding is left to the caller via Writer/Reader so each
// algorithm serializes exactly the fields it synchronizes. Writers and
// Decoders are reusable: the exchange substrate (internal/dgalois)
// keeps one Writer per ordered host pair and one Decoder per receiving
// host, so steady-state synchronization allocates nothing.
package gluon

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"mrbc/internal/bitset"
	"mrbc/internal/partition"
)

// Topology precomputes, for a partitioning, the shared-vertex lists
// every ordered host pair synchronizes over, their inverse, which
// broadcast positions name a mirror with local in-edges (a reader of a
// value pulled back along in-edges, Marks.MarkReaders), the links
// each kind of sync phase can carry data on, and how a vote reaches
// every host over them (VoteLegs).
type Topology struct {
	pt *partition.Partitioning
	// mirrorsByMaster[a][b]: local IDs (on host a) of proxies whose
	// master is host b, ascending; empty when a == b.
	mirrorsByMaster [][][]uint32
	// masterSide[a][b]: local IDs (on host b's MASTER side) matching
	// mirrorsByMaster[a][b] entry-for-entry, i.e., the same vertices
	// translated to host b's local IDs.
	masterSide [][][]uint32
	// The inverse of the lists above, one CSR per host:
	// slots[a][slotOff[a][l]:slotOff[a][l+1]] are the list positions
	// local ID l of host a occupies — a mirror's one position in
	// MirrorList(a, master), a master's position in MasterList(b, a) for
	// every host b that mirrors it. Marks.Mark and Marks.MarkReaders
	// walk it.
	slotOff [][]uint32
	slots   [][]listSlot
	// reads[a] has bit i set when slots[a][i] is a broadcast position
	// whose mirror has local in-edges.
	reads     []*bitset.Set
	partners  *Links // a shared list links a and b, either way
	partials  *Links // a → b: a mirror on a mastered by b has local out-edges
	readers   *Links // b → a: a mirror on a mastered by b has local in-edges
	proposals *Links // a → b: the same mirrors, toward their master
	voteLegs  int
}

// Links is a set of directed host links (from, to): those a sync phase
// can ever mark a position on. Both ends of an exchange derive it from
// the same topology, so a link outside the set carries no record, not
// even an empty marker. A nil *Links holds every link.
type Links struct {
	hosts int
	on    []bool // [from*hosts+to]
}

func newLinks(hosts int) *Links { return &Links{hosts: hosts, on: make([]bool, hosts*hosts)} }

// Has reports whether the link from → to is in the set.
func (l *Links) Has(from, to int) bool { return l == nil || l.on[from*l.hosts+to] }

// Len returns the number of links in the set.
func (l *Links) Len() int {
	n := 0
	for _, on := range l.on {
		if on {
			n++
		}
	}
	return n
}

// listSlot is one position of one shared list. set indexes the owning
// host's Marks.sets: the peer for a mirror's reduce-direction list,
// NumHosts + the peer for a master's broadcast-direction list.
type listSlot struct {
	set uint32
	pos uint32
}

// NewTopology builds the proxy topology for a partitioning.
func NewTopology(pt *partition.Partitioning) *Topology {
	t := &Topology{pt: pt}
	h := pt.NumHosts
	t.mirrorsByMaster = make([][][]uint32, h)
	t.masterSide = make([][][]uint32, h)
	t.slotOff = make([][]uint32, h)
	t.slots = make([][]listSlot, h)
	t.reads = make([]*bitset.Set, h)
	t.partners, t.partials, t.readers, t.proposals = newLinks(h), newLinks(h), newLinks(h), newLinks(h)
	for a := 0; a < h; a++ {
		t.mirrorsByMaster[a] = make([][]uint32, h)
		t.masterSide[a] = make([][]uint32, h)
		// Two spare entries: the counts go in at l+2, so that after the
		// prefix sum entry l+1 is where l's slots start and can serve as
		// the fill cursor, which leaves it at l+1's start.
		t.slotOff[a] = make([]uint32, pt.Parts[a].NumProxies()+2)
	}
	for a, p := range pt.Parts {
		for l, gid := range p.GlobalID {
			m := int(pt.MasterOf[gid])
			if m == a {
				continue
			}
			ml, ok := pt.Parts[m].LocalID(gid)
			if !ok {
				panic(fmt.Sprintf("gluon: master host %d lacks proxy for vertex %d", m, gid))
			}
			t.mirrorsByMaster[a][m] = append(t.mirrorsByMaster[a][m], uint32(l))
			t.masterSide[a][m] = append(t.masterSide[a][m], ml)
			t.slotOff[a][l+2]++
			t.slotOff[m][ml+2]++
		}
	}
	for a, off := range t.slotOff {
		for l := 1; l < len(off); l++ {
			off[l] += off[l-1]
		}
		t.slots[a] = make([]listSlot, off[len(off)-1])
		t.reads[a] = bitset.New(len(t.slots[a]))
	}
	// One pass over the shared lists fills both sides' slots.
	for a := 0; a < h; a++ {
		local := pt.Parts[a].Local
		for m := 0; m < h; m++ {
			masters := t.masterSide[a][m]
			for pos, l := range t.mirrorsByMaster[a][m] {
				ml := masters[pos]
				t.slots[a][t.slotOff[a][l+1]] = listSlot{set: uint32(m), pos: uint32(pos)}
				t.slotOff[a][l+1]++
				t.slots[m][t.slotOff[m][ml+1]] = listSlot{set: uint32(h + a), pos: uint32(pos)}
				if local.InDegree(l) > 0 {
					t.reads[m].Set(int(t.slotOff[m][ml+1]))
					t.readers.on[m*h+a] = true
					t.proposals.on[a*h+m] = true
				}
				if local.OutDegree(l) > 0 {
					t.partials.on[a*h+m] = true
				}
				t.partners.on[a*h+m], t.partners.on[m*h+a] = true, true
				t.slotOff[m][ml+1]++
			}
		}
	}
	for a, off := range t.slotOff {
		t.slotOff[a] = off[:len(off)-1]
	}
	t.voteLegs = voteLegs(h, t.proposals, t.partners)
	return t
}

// voteLegs decides VoteLegs: 1 when proposals is every link, 2 when every
// host z reaches every other host x directly over partners or through
// some y with z → y in proposals and y → x in partners, else 0.
func voteLegs(h int, proposals, partners *Links) int {
	if proposals.Len() == h*(h-1) {
		return 1
	}
	for z := 0; z < h; z++ {
		for x := 0; x < h; x++ {
			if z == x || partners.Has(z, x) {
				continue
			}
			y := 0
			for y < h && !(proposals.Has(z, y) && partners.Has(y, x)) {
				y++
			}
			if y == h {
				return 0
			}
		}
	}
	return 2
}

// PartnerLinks is the links between hosts that share a proxy, either
// way: the links any sync exchange can move data on. Other hosts never
// have anything to reduce or broadcast to each other: on a Cartesian
// vertex-cut a host's partners lie in its grid row and column.
func (t *Topology) PartnerLinks() *Links { return t.partners }

// PartialLinks is the links a → b on which host a has a mirror mastered
// by b with local out-edges: the only mirrors that can hold a nonzero
// partial pulled back along out-edges, so the only reduce positions a
// phase that skips zero partials ever marks. Under an outgoing edge-cut
// no mirror has a local out-edge and the set is empty.
func (t *Topology) PartialLinks() *Links { return t.partials }

// ReaderLinks is the links b → a on which a mirror on a mastered by b has
// local in-edges: the broadcast positions Marks.MarkReaders marks.
func (t *Topology) ReaderLinks() *Links { return t.readers }

// ProposalLinks is the links a → b on which a mirror on a mastered by b
// has local in-edges, the transpose of ReaderLinks: once a batch's
// sources have proposed, only a local in-edge gives a mirror a label
// of its own to propose, so these are the only reduce positions a
// forward phase after its first round marks.
func (t *Topology) ProposalLinks() *Links { return t.proposals }

// VoteLegs is how many exchanges a vote needs to reach every host when
// each exchange carries a host's running sum on its links only, the
// first over ProposalLinks and the second over PartnerLinks: 1 when
// ProposalLinks is every link (as under an outgoing edge-cut), 2 when
// the two legs together carry every host's term to every host (as on a
// Cartesian cut, whose partner graph has diameter 2), and 0 when they do
// not, and the vote needs one exchange on every link. Every host derives
// the same answer from the same partitioning. A relayed sum counts some
// terms more than once: it is a vote only as a test against zero, for
// nonnegative terms.
func (t *Topology) VoteLegs() int { return t.voteLegs }

// MirrorList returns the local IDs on host a of the proxies mastered
// by host b (the reduce-direction shared list). The returned slice
// must not be modified.
func (t *Topology) MirrorList(a, b int) []uint32 { return t.mirrorsByMaster[a][b] }

// MasterList returns the host-b local IDs matching MirrorList(a, b)
// entry for entry.
func (t *Topology) MasterList(a, b int) []uint32 { return t.masterSide[a][b] }

// Partitioning returns the underlying partitioning.
func (t *Topology) Partitioning() *partition.Partitioning { return t.pt }

// Marks is one host's set of proxies whose label must cross to a peer in
// the next sync step, kept as marked positions of the shared lists
// themselves, so that packing a pair costs what the pair marked and
// never a scan of its list. The invariant every engine keeps: a
// position is set where the proxy is marked and cleared by the pack that
// ships it, so each marking compute or unpack is followed by the
// exchange of its direction before the same proxies can be marked again.
//
// Mark belongs to the host's serial contexts (its compute and unpack
// callbacks); the Encode methods of distinct peers touch distinct sets
// and may run concurrently, as pair-parallel pack callbacks do.
type Marks struct {
	slotOff []uint32 // the host's share of the topology's inverse index
	slots   []listSlot
	reads   *bitset.Set
	sets    []markSet // reduce-direction sets by peer, then broadcast-direction
}

// markSet is the marked positions of one shared list, as the words of a
// bitset over the list, and their count.
type markSet struct {
	list  []uint32
	words []uint64
	n     int
}

// NewMarks returns host's empty mark structure.
func (t *Topology) NewMarks(host int) *Marks {
	h := t.pt.NumHosts
	m := &Marks{slotOff: t.slotOff[host], slots: t.slots[host], reads: t.reads[host], sets: make([]markSet, 2*h)}
	for peer := 0; peer < h; peer++ {
		m.sets[peer].list = t.MirrorList(host, peer)
		m.sets[h+peer].list = t.MasterList(peer, host)
	}
	for i := range m.sets {
		m.sets[i].words = make([]uint64, bitset.WordsFor(len(m.sets[i].list)))
	}
	return m
}

// Mark records that proxy lid's label must be synchronized: reduced to
// its master if lid is a mirror, broadcast to every host mirroring it if
// lid is a master. Marking a marked proxy, or one no other host shares,
// does nothing.
func (m *Marks) Mark(lid uint32) {
	for _, sl := range m.slots[m.slotOff[lid]:m.slotOff[lid+1]] {
		m.sets[sl.set].mark(sl.pos)
	}
}

// MarkReaders is Mark for a master whose value only its in-edges read:
// it marks lid's broadcast to the hosts whose mirror of lid has local
// in-edges and skips the rest, which would receive a value they never
// read. On a mirror it does nothing.
func (m *Marks) MarkReaders(lid uint32) {
	for i := m.slotOff[lid]; i < m.slotOff[lid+1]; i++ {
		if m.reads.Test(int(i)) {
			sl := m.slots[i]
			m.sets[sl.set].mark(sl.pos)
		}
	}
}

func (s *markSet) mark(pos uint32) {
	if w, bit := &s.words[pos/64], uint64(1)<<(pos%64); *w&bit == 0 {
		*w |= bit
		s.n++
	}
}

// EncodeReduce appends to w the sync message for the marked mirrors
// mastered by host to — EncodeUpdates over MirrorList(host, to), emit
// writing each marked proxy's payload — and unmarks them. With nothing
// marked for the pair it returns at once.
func (m *Marks) EncodeReduce(w *Writer, to int, emit func(lid uint32, w *Writer)) {
	m.sets[to].encode(w, emit)
}

// EncodeBroadcast is EncodeReduce for the marked masters that host to
// mirrors, over MasterList(to, host).
func (m *Marks) EncodeBroadcast(w *Writer, to int, emit func(lid uint32, w *Writer)) {
	m.sets[len(m.sets)/2+to].encode(w, emit)
}

func (s *markSet) encode(w *Writer, emit func(lid uint32, w *Writer)) {
	if s.n == 0 {
		return
	}
	marked := bitset.FromWords(s.words, len(s.list))
	EncodeUpdates(w, len(s.list), &marked, func(pos int, w *Writer) { emit(s.list[pos], w) })
	marked.Reset()
	s.n = 0
}

// Format identifies a sync-metadata encoding. FormatAuto is the
// default (and the Writer zero value): EncodeUpdates picks the
// smallest encoding per message. The other values double as the wire
// header byte.
type Format byte

const (
	// FormatAuto selects per message the encoding with the smallest
	// metadata; it never appears on the wire.
	FormatAuto Format = iota
	// FormatDense is the seed wire format plus the header byte: a full
	// bitvector over the shared list. Smallest when marked density is
	// high.
	FormatDense
	// FormatSparse is a count followed by varint-delta-encoded marked
	// positions. Smallest when few proxies updated.
	FormatSparse
	// FormatAll carries no metadata: every position of the shared list
	// is marked. Only valid — and automatically chosen — when the
	// update set is the whole list.
	FormatAll
)

func (f Format) String() string {
	switch f {
	case FormatAuto:
		return "auto"
	case FormatDense:
		return "dense"
	case FormatSparse:
		return "sparse"
	case FormatAll:
		return "all"
	}
	return fmt.Sprintf("Format(%d)", byte(f))
}

// EncodingCounts tallies sync messages by wire format.
type EncodingCounts struct {
	Dense  int64 `json:"dense"`
	Sparse int64 `json:"sparse"`
	All    int64 `json:"all"`
}

// Add accumulates o into c.
func (c *EncodingCounts) Add(o EncodingCounts) {
	c.Dense += o.Dense
	c.Sparse += o.Sparse
	c.All += o.All
}

// Total returns the number of messages across all formats.
func (c EncodingCounts) Total() int64 { return c.Dense + c.Sparse + c.All }

// ByteCounts tallies sync-message bytes (header + metadata + payload)
// by wire format — the byte-level companion of EncodingCounts, surfaced
// through the dgalois metrics registry.
type ByteCounts struct {
	Dense  int64 `json:"dense"`
	Sparse int64 `json:"sparse"`
	All    int64 `json:"all"`
}

// Add accumulates o into c.
func (c *ByteCounts) Add(o ByteCounts) {
	c.Dense += o.Dense
	c.Sparse += o.Sparse
	c.All += o.All
}

// Total returns the byte count across all formats.
func (c ByteCounts) Total() int64 { return c.Dense + c.Sparse + c.All }

// Writer serializes payloads into a sync buffer. The zero value is
// ready to use; Reset lets one Writer serve many messages without
// reallocating.
type Writer struct {
	buf   []byte
	force Format // FormatAuto: adaptive selection; the decoder tests pin a format here

	counts     EncodingCounts
	byteCounts ByteCounts
}

// Bytes returns the accumulated buffer.
func (w *Writer) Bytes() []byte { return w.buf }

// Len returns the accumulated byte count.
func (w *Writer) Len() int { return len(w.buf) }

// Reset empties the buffer, keeping its capacity (and the format
// counters, which TakeCounts drains).
func (w *Writer) Reset() { w.buf = w.buf[:0] }

// TakeCounts returns the per-format message tallies accumulated since
// the last call, and zeroes them.
func (w *Writer) TakeCounts() EncodingCounts {
	c := w.counts
	w.counts = EncodingCounts{}
	return c
}

// TakeByteCounts returns the per-format byte tallies (full message
// size: header, metadata, and payload) accumulated since the last
// call, and zeroes them.
func (w *Writer) TakeByteCounts() ByteCounts {
	c := w.byteCounts
	w.byteCounts = ByteCounts{}
	return c
}

// U32 appends a uint32.
func (w *Writer) U32(x uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], x)
	w.buf = append(w.buf, b[:]...)
}

// U64 appends a uint64.
func (w *Writer) U64(x uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], x)
	w.buf = append(w.buf, b[:]...)
}

// F64 appends a float64.
func (w *Writer) F64(x float64) { w.U64(math.Float64bits(x)) }

// Byte appends a single byte.
func (w *Writer) Byte(x byte) { w.buf = append(w.buf, x) }

// Raw appends arbitrary bytes.
func (w *Writer) Raw(b []byte) { w.buf = append(w.buf, b...) }

// Uvarint appends x in unsigned varint encoding.
func (w *Writer) Uvarint(x uint64) { w.buf = binary.AppendUvarint(w.buf, x) }

// Reader deserializes a sync buffer.
type Reader struct {
	buf []byte
	off int
}

// NewReader wraps a buffer.
func NewReader(b []byte) *Reader { return &Reader{buf: b} }

// Reset points the reader at a new buffer.
func (r *Reader) Reset(b []byte) { r.buf, r.off = b, 0 }

// U32 reads a uint32.
func (r *Reader) U32() uint32 {
	if r.off+4 > len(r.buf) {
		panic("gluon: truncated sync buffer")
	}
	x := binary.LittleEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return x
}

// U64 reads a uint64.
func (r *Reader) U64() uint64 {
	if r.off+8 > len(r.buf) {
		panic("gluon: truncated sync buffer")
	}
	x := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return x
}

// F64 reads a float64.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Byte reads a single byte.
func (r *Reader) Byte() byte {
	if r.off >= len(r.buf) {
		panic("gluon: truncated sync buffer")
	}
	b := r.buf[r.off]
	r.off++
	return b
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		panic("gluon: truncated or overlong varint in sync buffer")
	}
	r.off += n
	return v
}

// bytesN returns the next n bytes as a sub-slice and advances.
func (r *Reader) bytesN(n int) []byte {
	if n < 0 || r.off+n > len(r.buf) {
		panic("gluon: truncated sync buffer")
	}
	s := r.buf[r.off : r.off+n]
	r.off += n
	return s
}

// Remaining reports the unread byte count.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

// uvarintLen returns the encoded size of x in bytes.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// sparseMetaLen returns the byte cost of the sparse position metadata
// (count field + varint-delta positions) using word-skipping iteration,
// so near-empty update sets over long lists are costed in O(set bits).
func sparseMetaLen(marked *bitset.Set) int {
	n := 4 // u32 count
	prev := -1
	for pos, ok := marked.NextSet(0); ok; pos, ok = marked.NextSet(pos + 1) {
		if prev < 0 {
			n += uvarintLen(uint64(pos))
		} else {
			n += uvarintLen(uint64(pos - prev - 1))
		}
		prev = pos
	}
	return n
}

// EncodeUpdates appends a sync message over a shared list of listLen
// proxies to w: a one-byte format header, the list length, the marked
// positions in the smallest of the three metadata encodings (or the
// format a test pinned in Writer.force; FormatAll then panics unless
// every position is marked), then each marked position's payload in
// ascending order (written by the emit callback). Nothing is appended
// when no positions are marked, so the caller sends nothing — Gluon
// "avoids resending labels that have not been updated".
//
// Selection rule: all-marked ships zero metadata; otherwise the sparse
// index list wins exactly when its varint positions are smaller than
// the ⌈listLen/64⌉ dense bitvector words, which for 4-byte-plus
// deltas means marked density below roughly 1/5th of a bit per
// position. The payload bytes are identical across formats, so
// comparing metadata sizes alone picks the smallest message.
func EncodeUpdates(w *Writer, listLen int, marked *bitset.Set, emit func(pos int, w *Writer)) {
	if marked.None() {
		return
	}
	if marked.Len() != listLen {
		panic("gluon: marked bitvector does not match shared list length")
	}
	count := marked.Count()
	startLen := w.Len()
	f := w.force
	if f == FormatAuto {
		if count == listLen {
			f = FormatAll
		} else if sparseMetaLen(marked) < 8*bitset.WordsFor(listLen) {
			f = FormatSparse
		} else {
			f = FormatDense
		}
	}
	w.Byte(byte(f))
	w.U32(uint32(listLen))
	switch f {
	case FormatDense:
		for _, word := range marked.Words() {
			w.U64(word)
		}
		w.counts.Dense++
	case FormatSparse:
		w.U32(uint32(count))
		prev := -1
		for pos, ok := marked.NextSet(0); ok; pos, ok = marked.NextSet(pos + 1) {
			if prev < 0 {
				w.Uvarint(uint64(pos))
			} else {
				w.Uvarint(uint64(pos - prev - 1))
			}
			prev = pos
		}
		w.counts.Sparse++
	case FormatAll:
		if count != listLen {
			panic("gluon: all-marked format forced with unmarked positions")
		}
		w.counts.All++
	default:
		panic(fmt.Sprintf("gluon: cannot encode with format %v", f))
	}
	marked.ForEach(func(pos int) bool {
		emit(pos, w)
		return true
	})
	size := int64(w.Len() - startLen)
	switch f {
	case FormatDense:
		w.byteCounts.Dense += size
	case FormatSparse:
		w.byteCounts.Sparse += size
	case FormatAll:
		w.byteCounts.All += size
	}
}

// Decoder parses sync messages. It owns the reader scratch handed to
// apply callbacks, so one Decoder per receiving host makes the decode
// path allocation-free. The zero value is ready to use.
type Decoder struct {
	rd     Reader
	counts EncodingCounts
}

// NewDecoder returns a reusable decoder.
func NewDecoder() *Decoder { return &Decoder{} }

// TakeCounts returns how many messages of each wire format the decoder
// parsed since the last call, and resets the tallies — the receive-side
// mirror of Writer.TakeCounts, letting the cross-host conservation
// checker match per-encoding message counts sender against receiver.
func (d *Decoder) TakeCounts() EncodingCounts {
	c := d.counts
	d.counts = EncodingCounts{}
	return c
}

// DecodeUpdates parses a message produced by EncodeUpdates over the
// same shared list, dispatching on the format header and calling apply
// for every marked position in ascending order. Malformed input —
// unknown header, length mismatch, positions beyond the list,
// non-ascending positions, truncation (including mid-varint), trailing
// bytes — panics with a gluon-prefixed message, mirroring the seed
// decoder's convention; it never reads out of bounds. (On the fault
// path the frame checksum vouches for the payload before it gets
// here, so a panic indicates a substrate bug, not line noise.)
func (d *Decoder) DecodeUpdates(listLen int, data []byte, apply func(pos int, r *Reader)) {
	rd := &d.rd
	rd.Reset(data)
	f := Format(rd.Byte())
	if got := int(rd.U32()); got != listLen {
		panic(fmt.Sprintf("gluon: shared list length mismatch: message %d, local %d", got, listLen))
	}
	applied := 0
	switch f {
	case FormatDense:
		nw := bitset.WordsFor(listLen)
		words := rd.bytesN(8 * nw)
		for i := 0; i < nw; i++ {
			word := binary.LittleEndian.Uint64(words[8*i:])
			base := i * 64
			for word != 0 {
				pos := base + bits.TrailingZeros64(word)
				if pos >= listLen {
					panic(fmt.Sprintf("gluon: dense metadata marks position %d beyond shared list length %d", pos, listLen))
				}
				apply(pos, rd)
				applied++
				word &= word - 1
			}
		}
	case FormatSparse:
		count := int(rd.U32())
		if count <= 0 || count > listLen {
			panic(fmt.Sprintf("gluon: sparse metadata declares %d positions over a %d-entry shared list", count, listLen))
		}
		// Pass 1: validate the varint block (bounds, monotonicity) and
		// find where the payloads start.
		varStart := rd.off
		pos := -1
		for i := 0; i < count; i++ {
			v := rd.Uvarint()
			if v >= uint64(listLen) {
				panic(fmt.Sprintf("gluon: sparse position delta %d beyond shared list length %d", v, listLen))
			}
			if pos < 0 {
				pos = int(v)
			} else {
				pos += int(v) + 1
			}
			if pos >= listLen {
				panic(fmt.Sprintf("gluon: sparse metadata marks position %d beyond shared list length %d", pos, listLen))
			}
		}
		// Pass 2: re-walk the validated varints interleaved with the
		// payloads.
		vi := varStart
		pos = -1
		for i := 0; i < count; i++ {
			v, n := binary.Uvarint(data[vi:])
			vi += n
			if pos < 0 {
				pos = int(v)
			} else {
				pos += int(v) + 1
			}
			apply(pos, rd)
		}
		applied = count
	case FormatAll:
		for pos := 0; pos < listLen; pos++ {
			apply(pos, rd)
		}
		applied = listLen
	default:
		panic(fmt.Sprintf("gluon: unknown sync format header %d", byte(f)))
	}
	if applied == 0 {
		panic("gluon: sync message marks no positions (empty messages must not be sent)")
	}
	if rd.Remaining() != 0 {
		panic(fmt.Sprintf("gluon: %d trailing bytes in sync buffer", rd.Remaining()))
	}
	switch f {
	case FormatDense:
		d.counts.Dense++
	case FormatSparse:
		d.counts.Sparse++
	case FormatAll:
		d.counts.All++
	}
}

// DecodeUpdates is the convenience form for callers without a pooled
// Decoder (tests, one-shot tools).
func DecodeUpdates(listLen int, data []byte, apply func(pos int, r *Reader)) {
	var d Decoder
	d.DecodeUpdates(listLen, data, apply)
}
