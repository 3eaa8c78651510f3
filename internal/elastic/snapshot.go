// Package elastic is the host-loss recovery layer: checkpointing of
// per-host engine state at source-batch boundaries, pluggable snapshot
// sinks (in-memory for tests, per-host files for bcd daemons). The
// recovery loop that drives them is clusterrun.RunElastic.
//
// The batched k-SSP structure of MRBC makes batch boundaries exact
// recovery units: all per-batch engine state is rebuilt from scratch at
// the top of every batch, so the only state a resumed run needs is the
// scores folded so far (bit-exact), the batch cursor, and the
// cluster's dgalois.Cursor (phase sequence number, rounds, and
// paper-model volume). A depth-1 run resumed from any boundary
// therefore replays the uninterrupted run's canonical trace exactly —
// the invariant the determinism tests pin.
package elastic

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"mrbc/internal/dgalois"
	"mrbc/internal/gluon"
)

// Snapshot is one host's engine-independent state at a source-batch
// boundary. Scores holds the host's master contributions folded so far
// (the full vector in an in-process run); NextBatch is the first batch
// index not yet folded; the Cursor is the cluster's, which a resumed
// cluster is restored to so its event numbering and stats continue the
// pre-restore sequence exactly.
type Snapshot struct {
	// Host is the owning host (-1 for an in-process whole-cluster run);
	// Hosts is the cluster size the snapshot belongs to.
	Host  int
	Hosts int
	// Epoch is the membership epoch the snapshot was taken under.
	Epoch int
	// NextBatch is the batch cursor: the first batch index whose work is
	// not included in Scores.
	NextBatch int
	// Cursor is the cluster's counter position at the boundary: its
	// counts are cumulative from batch 0, across prior restores.
	dgalois.Cursor
	// Scores are the folded BC scores, restored bitwise.
	Scores []float64
}

// Snapshot wire layout (little-endian), mirroring the gluon frame's
// CRC discipline:
//
//	magic   [4]byte "MRCK"
//	version uint16  (snapshotVersion)
//	flags   uint16  (reserved, zero)
//	crc     uint32  CRC-32C (Castagnoli) over everything after it
//	host    int32   (-1 for in-process)
//	hosts   uint32
//	epoch   uint32
//	next    uint32  batch cursor
//	seq     uint64  phase sequence cursor
//	rounds  uint64
//	bytes   uint64
//	msgs    uint64
//	dense   uint64  encoding counts
//	sparse  uint64
//	all     uint64
//	n       uint32  score count
//	scores  [n]uint64  IEEE-754 bit patterns (bitwise-exact restore)
//
// The magic and version sit outside the checksum so a version bump is
// reported as ErrVersion rather than as corruption.

const (
	snapshotVersion = 1
	snapHeader      = 92 // bytes before the scores array
)

var snapMagic = [4]byte{'M', 'R', 'C', 'K'}

var snapCRC = crc32.MakeTable(crc32.Castagnoli)

// Structured decode failures. Decode never panics: arbitrary input
// yields an error wrapping exactly one of these sentinels.
var (
	// ErrTruncated reports input shorter than its header or declared
	// score array.
	ErrTruncated = errors.New("elastic: snapshot truncated")
	// ErrMagic reports input that is not a snapshot at all.
	ErrMagic = errors.New("elastic: not a snapshot")
	// ErrVersion reports a snapshot written by an unknown format
	// version.
	ErrVersion = errors.New("elastic: unsupported snapshot version")
	// ErrCorrupt reports a checksum mismatch or an internally
	// inconsistent header.
	ErrCorrupt = errors.New("elastic: snapshot corrupt")
)

// Encode serializes a snapshot.
func Encode(s *Snapshot) []byte {
	out := make([]byte, snapHeader+8*len(s.Scores))
	copy(out, snapMagic[:])
	binary.LittleEndian.PutUint16(out[4:], snapshotVersion)
	// out[6:8]: reserved flags, zero. out[8:12]: crc, filled last.
	binary.LittleEndian.PutUint32(out[12:], uint32(int32(s.Host)))
	binary.LittleEndian.PutUint32(out[16:], uint32(s.Hosts))
	binary.LittleEndian.PutUint32(out[20:], uint32(s.Epoch))
	binary.LittleEndian.PutUint32(out[24:], uint32(s.NextBatch))
	binary.LittleEndian.PutUint64(out[28:], uint64(s.Seq))
	binary.LittleEndian.PutUint64(out[36:], uint64(s.Rounds))
	binary.LittleEndian.PutUint64(out[44:], uint64(s.Bytes))
	binary.LittleEndian.PutUint64(out[52:], uint64(s.Messages))
	binary.LittleEndian.PutUint64(out[60:], uint64(s.Encoding.Dense))
	binary.LittleEndian.PutUint64(out[68:], uint64(s.Encoding.Sparse))
	binary.LittleEndian.PutUint64(out[76:], uint64(s.Encoding.All))
	binary.LittleEndian.PutUint32(out[84:], uint32(len(s.Scores)))
	// out[88:92]: reserved, zero — keeps the score array 4-byte aligned
	// at a stable offset if later versions grow the header.
	for i, v := range s.Scores {
		binary.LittleEndian.PutUint64(out[snapHeader+8*i:], math.Float64bits(v))
	}
	binary.LittleEndian.PutUint32(out[8:], crc32.Checksum(out[12:], snapCRC))
	return out
}

// Decode parses a snapshot, validating magic, version, and checksum.
// It never panics; malformed input returns an error wrapping
// ErrTruncated, ErrMagic, ErrVersion, or ErrCorrupt.
func Decode(data []byte) (*Snapshot, error) {
	if len(data) < 8 {
		return nil, fmt.Errorf("%w: %d bytes, shorter than the magic and version", ErrTruncated, len(data))
	}
	if [4]byte(data[:4]) != snapMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrMagic, data[:4])
	}
	if v := binary.LittleEndian.Uint16(data[4:]); v != snapshotVersion {
		return nil, fmt.Errorf("%w: version %d, this build reads version %d", ErrVersion, v, snapshotVersion)
	}
	// Flags are reserved: a set bit means a format feature this build
	// does not know, which is a versioning problem, not corruption.
	if f := binary.LittleEndian.Uint16(data[6:]); f != 0 {
		return nil, fmt.Errorf("%w: unknown flags %#x", ErrVersion, f)
	}
	if len(data) < snapHeader {
		return nil, fmt.Errorf("%w: %d bytes, shorter than the %d-byte header", ErrTruncated, len(data), snapHeader)
	}
	n := binary.LittleEndian.Uint32(data[84:])
	want := uint64(snapHeader) + 8*uint64(n)
	if uint64(len(data)) < want {
		return nil, fmt.Errorf("%w: header declares %d scores (%d bytes), input carries %d", ErrTruncated, n, want, len(data))
	}
	if uint64(len(data)) > want {
		return nil, fmt.Errorf("%w: %d trailing bytes after the score array", ErrCorrupt, uint64(len(data))-want)
	}
	if got, crc := binary.LittleEndian.Uint32(data[8:]), crc32.Checksum(data[12:], snapCRC); got != crc {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	s := &Snapshot{
		Host:      int(int32(binary.LittleEndian.Uint32(data[12:]))),
		Hosts:     int(binary.LittleEndian.Uint32(data[16:])),
		Epoch:     int(binary.LittleEndian.Uint32(data[20:])),
		NextBatch: int(binary.LittleEndian.Uint32(data[24:])),
		Cursor: dgalois.Cursor{
			Seq:      int64(binary.LittleEndian.Uint64(data[28:])),
			Rounds:   int64(binary.LittleEndian.Uint64(data[36:])),
			Bytes:    int64(binary.LittleEndian.Uint64(data[44:])),
			Messages: int64(binary.LittleEndian.Uint64(data[52:])),
			Encoding: gluon.EncodingCounts{
				Dense:  int64(binary.LittleEndian.Uint64(data[60:])),
				Sparse: int64(binary.LittleEndian.Uint64(data[68:])),
				All:    int64(binary.LittleEndian.Uint64(data[76:])),
			},
		},
	}
	if n > 0 {
		s.Scores = make([]float64, n)
		for i := range s.Scores {
			s.Scores[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[snapHeader+8*i:]))
		}
	}
	return s, nil
}
