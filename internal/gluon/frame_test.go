package gluon

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	for _, payload := range [][]byte{nil, {}, {0xff}, []byte("hello gluon"), bytes.Repeat([]byte{0xab}, 1000)} {
		for _, seq := range []uint32{0, 1, 77, 1 << 31} {
			fr := EncodeFrame(seq, payload)
			if len(fr) != FrameOverhead+len(payload) {
				t.Fatalf("frame length %d, want %d", len(fr), FrameOverhead+len(payload))
			}
			gotSeq, gotPayload, err := DecodeFrame(fr)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if gotSeq != seq || !bytes.Equal(gotPayload, payload) {
				t.Fatalf("round trip mismatch: seq %d != %d or payload differs", gotSeq, seq)
			}
		}
	}
}

func TestFrameDetectsDamage(t *testing.T) {
	fr := EncodeFrame(42, []byte("some payload bytes"))
	// Every single-bit flip anywhere in the frame must be detected.
	for bit := 0; bit < len(fr)*8; bit++ {
		cp := append([]byte(nil), fr...)
		cp[bit/8] ^= 1 << (bit % 8)
		if _, _, err := DecodeFrame(cp); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("bit flip at %d undetected (err=%v)", bit, err)
		}
	}
	// Every truncation must be detected.
	for cut := 0; cut < len(fr); cut++ {
		if _, _, err := DecodeFrame(fr[:cut]); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("truncation to %d bytes undetected (err=%v)", cut, err)
		}
	}
	// Trailing garbage must be detected.
	if _, _, err := DecodeFrame(append(append([]byte(nil), fr...), 0)); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("trailing byte undetected (err=%v)", err)
	}
}

// TestStreamReadersRefuseTheSameHeaders: the transport's connection
// reader and ReadFrame, the relay's, check a stream's next frame header
// with one rule — the magic, and a declared payload of at most 1 GiB —
// and refuse a bad one with the same error.
func TestStreamReadersRefuseTheSameHeaders(t *testing.T) {
	good := EncodeFrame(9, []byte("payload"))
	badMagic := append([]byte(nil), good...)
	badMagic[0] = 'X'
	tooLong := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(tooLong[8:], 1<<30+1)
	for name, frame := range map[string][]byte{"bad magic": badMagic, "too long": tooLong} {
		_, relayErr := ReadFrame(bufio.NewReader(bytes.NewReader(frame)))
		c := &connReader{buf: append([]byte(nil), frame...), w: len(frame)}
		_, _, _, connErr := c.next(nil, false)
		if !errors.Is(relayErr, ErrBadFrame) || !errors.Is(connErr, ErrBadFrame) || relayErr.Error() != connErr.Error() {
			t.Errorf("%s: ReadFrame: %v; connection reader: %v; want one ErrBadFrame", name, relayErr, connErr)
		}
	}
	c := &connReader{buf: append([]byte(nil), good...), w: len(good)}
	if seq, body, _, err := c.next(nil, false); err != nil || seq != 9 || string(body) != "payload" {
		t.Fatalf("connection reader on a good frame: seq %d, body %q, %v", seq, body, err)
	}
}
