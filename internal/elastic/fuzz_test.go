package elastic

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"mrbc/internal/dgalois"
)

// FuzzDecodeCheckpoint drives Decode with arbitrary bytes: it must
// never panic, must classify every rejection under exactly one of the
// structured sentinels, and — when it does accept an input — that
// input must be byte-identical to the re-encoding of what it decoded
// (no two wire forms for one snapshot, no silently tolerated slack).
func FuzzDecodeCheckpoint(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("MRCK"))
	f.Add(snapMagic[:])
	f.Add(Encode(&Snapshot{Host: -1, Hosts: 1}))
	f.Add(Encode(&Snapshot{Host: 2, Hosts: 4, Epoch: 3, NextBatch: 7,
		Cursor: dgalois.Cursor{Seq: 99, Rounds: 1, Bytes: 2, Messages: 3},
		Scores: []float64{0, math.Inf(1), -0.0, 1.5}}))
	long := Encode(&Snapshot{Hosts: 8, Scores: make([]float64, 200)})
	f.Add(long)
	f.Add(long[:len(long)-1])
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Decode(data)
		if err != nil {
			if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrMagic) &&
				!errors.Is(err, ErrVersion) && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("unstructured decode error: %v", err)
			}
			return
		}
		if s == nil {
			t.Fatal("nil snapshot without error")
		}
		if !bytes.Equal(Encode(s), data) {
			t.Fatalf("accepted input is not canonical: decode→encode changed %d bytes", len(data))
		}
	})
}
