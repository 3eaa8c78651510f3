package elastic

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"mrbc/internal/dgalois"
	"mrbc/internal/gluon"
)

// randomSnapshot draws an arbitrary snapshot, with score bit patterns
// drawn from the full uint64 space so NaNs, infinities, subnormals,
// and negative zero all round-trip.
func randomSnapshot(rng *rand.Rand) *Snapshot {
	n := rng.Intn(64)
	scores := make([]float64, n)
	for i := range scores {
		scores[i] = math.Float64frombits(rng.Uint64())
	}
	return &Snapshot{
		Host:      rng.Intn(16) - 1,
		Hosts:     1 + rng.Intn(16),
		Epoch:     rng.Intn(1 << 16),
		NextBatch: rng.Intn(1 << 20),
		Cursor: dgalois.Cursor{
			Seq:      rng.Int63(),
			Rounds:   rng.Int63(),
			Bytes:    rng.Int63(),
			Messages: rng.Int63(),
			Encoding: gluon.EncodingCounts{Dense: rng.Int63(), Sparse: rng.Int63(), All: rng.Int63()},
		},
		Scores: scores,
	}
}

// snapEqual compares snapshots with bitwise score identity — resumed
// runs must replay the serial trace exactly, so ±0 and NaN payloads
// matter.
func snapEqual(a, b *Snapshot) bool {
	if a.Host != b.Host || a.Hosts != b.Hosts || a.Epoch != b.Epoch || a.NextBatch != b.NextBatch ||
		a.Cursor != b.Cursor || len(a.Scores) != len(b.Scores) {
		return false
	}
	for i := range a.Scores {
		if math.Float64bits(a.Scores[i]) != math.Float64bits(b.Scores[i]) {
			return false
		}
	}
	return true
}

// TestSnapshotRoundTripQuick is the encode/decode property test:
// arbitrary snapshots survive the wire bitwise, and encoding is
// deterministic (byte-identical across calls — the checkpoint
// determinism test at the engine level relies on this).
func TestSnapshotRoundTripQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func() bool {
		s := randomSnapshot(rng)
		data := Encode(s)
		again := Encode(s)
		if !bytes.Equal(data, again) {
			t.Log("encoding is not deterministic")
			return false
		}
		got, err := Decode(data)
		if err != nil {
			t.Logf("decode of a fresh encoding failed: %v", err)
			return false
		}
		return snapEqual(s, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotTruncationQuick pins that every proper prefix of a valid
// snapshot decodes to a structured error — never a panic, never a
// silently short vector.
func TestSnapshotTruncationQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		data := Encode(randomSnapshot(rng))
		for cut := 0; cut < len(data); cut++ {
			snap, err := Decode(data[:cut])
			if err == nil {
				t.Fatalf("trial %d: decode of %d/%d-byte prefix succeeded: %+v", trial, cut, len(data), snap)
			}
			if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrMagic) && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("trial %d: prefix %d: unstructured error %v", trial, cut, err)
			}
		}
	}
}

// TestSnapshotCorruptionQuick flips one byte at every offset of a valid
// snapshot: the decoder must reject every mutation with a structured
// error (the CRC catches body flips; magic/version flips have their own
// names), and must never return corrupted state as valid.
func TestSnapshotCorruptionQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		data := Encode(randomSnapshot(rng))
		for off := 0; off < len(data); off++ {
			mut := append([]byte(nil), data...)
			mut[off] ^= 1 << (off % 8)
			snap, err := Decode(mut)
			if err == nil {
				t.Fatalf("trial %d: flipped byte %d of %d yet decode succeeded: %+v", trial, off, len(data), snap)
			}
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrMagic) && !errors.Is(err, ErrVersion) && !errors.Is(err, ErrTruncated) {
				t.Fatalf("trial %d: offset %d: unstructured error %v", trial, off, err)
			}
		}
	}
}

// TestSnapshotVersionBump pins forward compatibility: a snapshot from a
// future format version is rejected by name, not mistaken for
// corruption — the version sits outside the checksummed region
// precisely so this diagnosis survives.
func TestSnapshotVersionBump(t *testing.T) {
	data := Encode(&Snapshot{Hosts: 4, Scores: []float64{1, 2, 3}})
	binary.LittleEndian.PutUint16(data[4:], snapshotVersion+1)
	if _, err := Decode(data); !errors.Is(err, ErrVersion) {
		t.Fatalf("future version decoded with err=%v, want ErrVersion", err)
	}
	binary.LittleEndian.PutUint16(data[4:], snapshotVersion)
	if _, err := Decode(data); err != nil {
		t.Fatalf("restoring the version should restore decodability, got %v", err)
	}
}

// TestSnapshotTrailingBytesRejected pins that extra bytes after the
// declared score vector are ErrCorrupt, not ignored.
func TestSnapshotTrailingBytesRejected(t *testing.T) {
	data := Encode(&Snapshot{Hosts: 2, Scores: []float64{4, 5}})
	if _, err := Decode(append(data, 0)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("trailing byte decoded with err=%v, want ErrCorrupt", err)
	}
}

func TestMemSinkLatest(t *testing.T) {
	s := NewMemSink()
	if _, _, err := s.Latest(); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("empty sink Latest err=%v, want ErrNoCheckpoint", err)
	}
	for _, b := range []int{1, 3, 2} {
		if err := s.Put(b, []byte{byte(b)}); err != nil {
			t.Fatal(err)
		}
	}
	b, data, err := s.Latest()
	if err != nil || b != 3 || len(data) != 1 || data[0] != 3 {
		t.Fatalf("Latest = (%d, %v, %v), want boundary 3", b, data, err)
	}
	if got, err := s.Get(2); err != nil || got[0] != 2 {
		t.Fatalf("Get(2) = (%v, %v)", got, err)
	}
	if _, err := s.Get(9); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("Get of absent boundary err=%v, want ErrNoCheckpoint", err)
	}
}

func TestFileSinkRoundTripAndCommonBoundary(t *testing.T) {
	dir := t.TempDir()
	// Host 0 reaches boundary 3, host 1 only boundary 2.
	for host, max := range map[int]int{0: 3, 1: 2} {
		sink, err := NewFileSink(dir, host)
		if err != nil {
			t.Fatal(err)
		}
		for b := 1; b <= max; b++ {
			if err := sink.Put(b, Encode(&Snapshot{Host: host, Hosts: 2, NextBatch: b})); err != nil {
				t.Fatal(err)
			}
		}
	}
	sink, err := NewFileSink(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, data, err := sink.Latest()
	if err != nil || b != 3 {
		t.Fatalf("host 0 Latest = (%d, %v)", b, err)
	}
	snap, err := Decode(data)
	if err != nil || snap.NextBatch != 3 {
		t.Fatalf("host 0 latest snapshot = (%+v, %v)", snap, err)
	}
	if got := LatestCommonBoundary(dir, 2); got != 2 {
		t.Fatalf("LatestCommonBoundary = %d, want 2 (host 1 lags)", got)
	}
	if got := LatestCommonBoundary(dir, 3); got != 0 {
		t.Fatalf("LatestCommonBoundary with a hostless member = %d, want 0", got)
	}
	// A replacement daemon adopts the dead host's directory by index.
	adopted, err := NewFileSink(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, data, err = adopted.Latest(); err != nil {
		t.Fatal(err)
	}
	if snap, err = Decode(data); err != nil || snap.Host != 1 || snap.NextBatch != 2 {
		t.Fatalf("adopted snapshot = (%+v, %v)", snap, err)
	}
}

func TestFileSinkCorruptFileSurfacesError(t *testing.T) {
	dir := t.TempDir()
	sink, err := NewFileSink(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	data := Encode(&Snapshot{Hosts: 1, Scores: []float64{1}})
	data[len(data)-1] ^= 0xff
	if err := sink.Put(1, data); err != nil {
		t.Fatal(err)
	}
	got, err := sink.Get(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(got); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt stored snapshot decoded with err=%v, want ErrCorrupt", err)
	}
}
