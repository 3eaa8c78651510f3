package gluon

import (
	"bytes"
	"encoding/binary"
	"net"
	"runtime"
	"strings"
	"testing"

	"mrbc/internal/bitset"
)

// FuzzDecodeFrame asserts the frame decoder never panics on arbitrary
// bytes and that acceptance implies a frame EncodeFrame could have
// produced: DecodeFrame is the one parser in the sync path that sees
// raw, possibly-corrupted network bytes (DecodeUpdates only ever sees
// payloads the frame checksum already vouched for).
func FuzzDecodeFrame(f *testing.F) {
	f.Add(EncodeFrame(0, nil))
	f.Add(EncodeFrame(42, []byte("payload")))
	f.Add(EncodeFrame(1<<31, bytes.Repeat([]byte{0xaa}, 100)))
	f.Add([]byte("GLNF"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		seq, payload, err := DecodeFrame(data)
		if err != nil {
			return
		}
		// Accepted frames must re-encode to the identical bytes: the
		// format has no slack (fixed header, exact length, checksum),
		// so decode∘encode is the identity on valid frames.
		if re := EncodeFrame(seq, payload); !bytes.Equal(re, data) {
			t.Fatalf("accepted frame is not canonical: % x != % x", re, data)
		}
	})
}

// fuzzSeedMessage builds a valid update message for the corpus.
func fuzzSeedMessage(f Format, listLen int, positions []int) []byte {
	m := bitset.New(listLen)
	for _, p := range positions {
		m.Set(p)
	}
	w := &Writer{}
	w.force = f
	EncodeUpdates(w, listLen, m, func(pos int, w *Writer) { w.U32(uint32(pos)) })
	return append([]byte(nil), w.Bytes()...)
}

// FuzzDecodeUpdates asserts the multi-format update decoder is memory-
// safe on arbitrary bytes: it either applies positions that are
// strictly ascending and in range, consuming the whole buffer, or it
// rejects the message with a gluon-prefixed panic (the documented
// convention for malformed sync payloads — which the frame checksum
// normally screens out). It must never fault with an out-of-bounds
// runtime error and never return having applied nothing.
func FuzzDecodeUpdates(f *testing.F) {
	all := func(n int) []int {
		ps := make([]int, n)
		for i := range ps {
			ps[i] = i
		}
		return ps
	}
	// Valid messages in every format, including multi-word dense and
	// multi-byte varint deltas.
	f.Add(100, fuzzSeedMessage(FormatDense, 100, []int{3, 64, 99}))
	f.Add(100, fuzzSeedMessage(FormatSparse, 100, []int{3, 64, 99}))
	f.Add(4, fuzzSeedMessage(FormatAll, 4, all(4)))
	f.Add(300, fuzzSeedMessage(FormatSparse, 300, []int{0, 200, 299}))
	f.Add(65, fuzzSeedMessage(FormatDense, 65, []int{0, 64}))
	// Malformed shapes: unknown header, zero count, truncated mid-varint,
	// trailing garbage.
	f.Add(8, []byte{9, 8, 0, 0, 0})
	f.Add(8, []byte{2, 8, 0, 0, 0, 0, 0, 0, 0})
	f.Add(300, fuzzSeedMessage(FormatSparse, 300, []int{200})[:7])
	f.Add(4, append(fuzzSeedMessage(FormatAll, 4, all(4)), 0xff))
	f.Fuzz(func(t *testing.T, listLen int, data []byte) {
		if listLen < 0 || listLen > 1<<16 {
			return
		}
		defer func() {
			r := recover()
			if r == nil {
				return
			}
			if _, oob := r.(runtime.Error); oob {
				t.Fatalf("decoder hit a runtime error (listLen=%d, % x): %v", listLen, data, r)
			}
			if s, ok := r.(string); !ok || !strings.HasPrefix(s, "gluon:") {
				t.Fatalf("non-convention panic %v (%T)", r, r)
			}
		}()
		dec := NewDecoder()
		prev := -1
		applied := 0
		dec.DecodeUpdates(listLen, data, func(pos int, r *Reader) {
			if pos <= prev || pos >= listLen {
				t.Fatalf("applied position %d after %d over list of %d", pos, prev, listLen)
			}
			prev = pos
			applied++
			r.U32()
		})
		if applied == 0 {
			t.Fatal("decoder returned without applying any position")
		}
	})
}

// FuzzReceiveRecord asserts the TCP receive path is memory-safe on
// arbitrary record bodies — what a peer's frame can carry once its
// checksum has passed — handed over the way a connection's reader does:
// short ones in place in its read buffer, the rest in a free-list buffer. A
// record is accepted (the sender's sequence advances) exactly when it is
// a data record with a whole 17-byte header; a 9- to 16-byte data body,
// whole under the header without the sum field, and any other kind — the
// reduce record (kind 4) older builds sent among them — are dropped and
// never indexed. An accepted record's payload comes back from GatherFrom
// byte for byte, after the array it may have been read into is
// overwritten, and its term from Sum.
func FuzzReceiveRecord(f *testing.F) {
	data := func(exchange, ack uint32, sum uint64, payload []byte) []byte {
		b := make([]byte, dataHeadLen, dataHeadLen+len(payload))
		b[0] = recData
		binary.LittleEndian.PutUint32(b[1:], exchange)
		binary.LittleEndian.PutUint32(b[5:], ack)
		binary.LittleEndian.PutUint64(b[9:], sum)
		return append(b, payload...)
	}
	f.Add(data(3, 0, 7, []byte("payload")))
	f.Add(data(4, 9, 1<<63, nil))
	f.Add(data(5, 0, 0, []byte{1}))
	f.Add(data(6, 0, 0, bytes.Repeat([]byte{0xee}, 300)))
	f.Add(data(7, 0, 0, nil)[:9])
	f.Add(data(8, 0, 0, nil)[:16])
	f.Add([]byte{recData})
	f.Add(data(0xffffffff, 0, 3, nil))
	f.Add([]byte{4, 1, 0, 0, 0, byte(ReduceSum), 5, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{recAck, 1, 0, 0, 0})
	f.Add([]byte{recHello, 1, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{0xff})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.Fatal(err)
	}
	// Host 1 exists only as the sender named to receiveRecord: nothing is
	// ever sent to it, so its address is never dialed.
	tr, err := NewTCPTransport(0, []string{ln.Addr().String(), "127.0.0.1:1"}, ln, TCPOptions{})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { tr.Close() })
	var ctl [FrameOverhead + dataHeadLen]byte
	f.Fuzz(func(t *testing.T, body []byte) {
		if len(body) == 0 {
			return // a connection's reader skips empty bodies
		}
		want := append([]byte(nil), body...)
		var frame []byte
		buf := ctl[:]
		tr.mu.Lock()
		seq := tr.inSeq[1] + 1
		if FrameOverhead+len(body) > len(ctl) {
			frame = takeFrame(&tr.recv, FrameOverhead+len(body))
			buf = frame
		}
		tr.mu.Unlock()
		rec := buf[FrameOverhead : FrameOverhead+len(body)]
		copy(rec, body)
		kept := tr.receiveRecord(1, seq, rec, frame)

		wellFormed := want[0] == recData && len(want) >= dataHeadLen
		tr.mu.Lock()
		accepted := tr.inSeq[1] == seq
		tr.mu.Unlock()
		if accepted != wellFormed {
			t.Fatalf("record % x: accepted %v, well-formed %v", want, accepted, wellFormed)
		}
		if kept != wellFormed {
			t.Fatalf("record % x: buffer kept %v", want, kept)
		}
		if !kept {
			return
		}
		clear(ctl[:])
		// The transport keys boxes by the field's 32 bits, so an exchange
		// read back as a uint32 finds the box a negative identifier opens.
		exchange := int(binary.LittleEndian.Uint32(want[1:]))
		got, err := tr.GatherFrom(exchange, 0, 1)
		if err != nil || !bytes.Equal(got, want[dataHeadLen:]) {
			t.Fatalf("record % x: gathered % x, %v", want, got, err)
		}
		if sum, err := tr.Sum(exchange, 0); err != nil || uint64(sum) != binary.LittleEndian.Uint64(want[9:]) {
			t.Fatalf("record % x: sum %d, %v", want, sum, err)
		}
	})
}
