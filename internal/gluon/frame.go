package gluon

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Frame layer: the record format of the TCP transport (tcp.go). Every
// data and control record travels inside a frame carrying a
// per-channel sequence number and a checksum, so the transport can
// detect truncation and bit corruption, discard duplicates, and
// acknowledge exactly the records that arrived intact.
//
// Wire layout (little-endian):
//
//	magic [4]byte  "GLNF"
//	seq   uint32   per-channel sequence number (1-based)
//	len   uint32   payload length in bytes
//	crc   uint32   CRC-32C (Castagnoli) over seq ∥ len ∥ payload
//	payload [len]byte
//
// The checksum covers the seq and len fields as well as the payload, so
// a bit flip anywhere past the magic is detected; a flip inside the
// magic fails the magic comparison instead. DecodeFrame never panics:
// arbitrary input yields a structured error, which the transport treats
// as a lost transmission (no ack, sender retries).

// FrameOverhead is the framing cost in bytes per transmitted message.
const FrameOverhead = 16

var frameMagic = [4]byte{'G', 'L', 'N', 'F'}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrBadFrame is the sentinel wrapped by every frame decoding error.
var ErrBadFrame = errors.New("gluon: bad frame")

// EncodeFrame wraps payload in a frame with the given sequence number.
func EncodeFrame(seq uint32, payload []byte) []byte {
	out := make([]byte, FrameOverhead+len(payload))
	copy(out[FrameOverhead:], payload)
	sealFrame(out, seq)
	return out
}

// sealFrame writes the header of a frame whose payload already sits at
// frame[FrameOverhead:], so a sender that builds the payload in place
// pays one buffer per frame instead of payload plus copy.
func sealFrame(frame []byte, seq uint32) {
	copy(frame, frameMagic[:])
	binary.LittleEndian.PutUint32(frame[4:], seq)
	binary.LittleEndian.PutUint32(frame[8:], uint32(len(frame)-FrameOverhead))
	crc := crc32.Update(0, crcTable, frame[4:12])
	crc = crc32.Update(crc, crcTable, frame[FrameOverhead:])
	binary.LittleEndian.PutUint32(frame[12:], crc)
}

// frameLen checks the header of a stream's next frame (the magic, and a
// payload of at most 1 GiB) and returns the whole frame's length.
func frameLen(hdr []byte) (int, error) {
	if [4]byte(hdr[:4]) != frameMagic {
		return 0, fmt.Errorf("%w: bad magic on stream", ErrBadFrame)
	}
	plen := binary.LittleEndian.Uint32(hdr[8:])
	if plen > 1<<30 {
		return 0, fmt.Errorf("%w: implausible payload length %d", ErrBadFrame, plen)
	}
	return FrameOverhead + int(plen), nil
}

// DecodeFrame parses a frame, returning its sequence number and
// payload (a sub-slice of data, not a copy). It rejects short input,
// wrong magic, length mismatches (truncation or trailing garbage), and
// checksum failures with an error wrapping ErrBadFrame.
func DecodeFrame(data []byte) (seq uint32, payload []byte, err error) {
	if len(data) < FrameOverhead {
		return 0, nil, fmt.Errorf("%w: %d bytes, shorter than header", ErrBadFrame, len(data))
	}
	if [4]byte(data[:4]) != frameMagic {
		return 0, nil, fmt.Errorf("%w: bad magic %q", ErrBadFrame, data[:4])
	}
	seq = binary.LittleEndian.Uint32(data[4:])
	plen := binary.LittleEndian.Uint32(data[8:])
	if uint64(len(data)) != FrameOverhead+uint64(plen) {
		return 0, nil, fmt.Errorf("%w: header declares %d payload bytes, frame carries %d", ErrBadFrame, plen, len(data)-FrameOverhead)
	}
	payload = data[FrameOverhead:]
	crc := crc32.Update(0, crcTable, data[4:12])
	crc = crc32.Update(crc, crcTable, payload)
	if got := binary.LittleEndian.Uint32(data[12:]); got != crc {
		return 0, nil, fmt.Errorf("%w: checksum mismatch", ErrBadFrame)
	}
	return seq, payload, nil
}
