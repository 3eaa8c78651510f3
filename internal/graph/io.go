package graph

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// File formats.
//
// Text format ("edge list"): lines of "u v" with '#' comments and blank
// lines ignored; an optional header line "n <vertices>" fixes the
// vertex count (otherwise it is 1 + the largest ID seen).
//
// Binary format: a compact CSR dump, little-endian:
//
//	magic  [8]byte  "MRBCGRPH"
//	n      uint64
//	m      uint64
//	offsets[n+1] uint64
//	dsts   [m]    uint32
//
// The binary format mirrors the Galois .gr style of shipping graphs as
// pre-built CSR so large inputs load without re-sorting.

var binaryMagic = [8]byte{'M', 'R', 'B', 'C', 'G', 'R', 'P', 'H'}

// ErrBadFormat reports a malformed graph file.
var ErrBadFormat = errors.New("graph: malformed file")

// WriteText writes the graph as a text edge list with a header.
func (g *Graph) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "n %d\n", g.NumVertices()); err != nil {
		return err
	}
	var err error
	g.Edges(func(u, v uint32) {
		if err == nil {
			_, err = fmt.Fprintf(bw, "%d %d\n", u, v)
		}
	})
	if err != nil {
		return err
	}
	return bw.Flush()
}

// ReadText parses the text edge-list format.
func ReadText(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	var edges [][2]uint32
	n := -1
	maxID := -1
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if fields[0] == "n" {
			if len(fields) != 2 {
				return nil, fmt.Errorf("%w: line %d: bad header", ErrBadFormat, line)
			}
			v, err := strconv.Atoi(fields[1])
			if err != nil || v < 0 {
				return nil, fmt.Errorf("%w: line %d: bad vertex count %q", ErrBadFormat, line, fields[1])
			}
			n = v
			continue
		}
		if len(fields) != 2 {
			return nil, fmt.Errorf("%w: line %d: expected 'u v'", ErrBadFormat, line)
		}
		u, err1 := strconv.ParseUint(fields[0], 10, 32)
		v, err2 := strconv.ParseUint(fields[1], 10, 32)
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("%w: line %d: bad vertex ID", ErrBadFormat, line)
		}
		if int(u) > maxID {
			maxID = int(u)
		}
		if int(v) > maxID {
			maxID = int(v)
		}
		edges = append(edges, [2]uint32{uint32(u), uint32(v)})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if n < 0 {
		n = maxID + 1
	} else if maxID >= n {
		return nil, fmt.Errorf("%w: vertex ID %d exceeds declared count %d", ErrBadFormat, maxID, n)
	}
	return FromEdges(n, edges), nil
}

// WriteBinary writes the compact CSR dump.
func (g *Graph) WriteBinary(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(binaryMagic[:]); err != nil {
		return err
	}
	le := binary.LittleEndian
	var buf [8]byte
	writeU64 := func(x uint64) error {
		le.PutUint64(buf[:], x)
		_, err := bw.Write(buf[:])
		return err
	}
	if err := writeU64(uint64(g.NumVertices())); err != nil {
		return err
	}
	if err := writeU64(uint64(g.NumEdges())); err != nil {
		return err
	}
	for _, o := range g.offsets {
		if err := writeU64(uint64(o)); err != nil {
			return err
		}
	}
	var b4 [4]byte
	for _, d := range g.dsts {
		le.PutUint32(b4[:], d)
		if _, err := bw.Write(b4[:]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadBinary parses the compact CSR dump and validates its structure:
// the rows must form a canonical CSR, as FromCSR checks.
func ReadBinary(r io.Reader) (*Graph, error) {
	br := bufio.NewReader(r)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("%w: missing magic: %v", ErrBadFormat, err)
	}
	if magic != binaryMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadFormat, magic[:])
	}
	le := binary.LittleEndian
	var buf [8]byte
	readU64 := func() (uint64, error) {
		_, err := io.ReadFull(br, buf[:])
		return le.Uint64(buf[:]), err
	}
	n64, err := readU64()
	if err != nil {
		return nil, fmt.Errorf("%w: truncated header", ErrBadFormat)
	}
	m64, err := readU64()
	if err != nil {
		return nil, fmt.Errorf("%w: truncated header", ErrBadFormat)
	}
	const maxReasonable = 1 << 40
	if n64 > maxReasonable || m64 > maxReasonable {
		return nil, fmt.Errorf("%w: implausible sizes n=%d m=%d", ErrBadFormat, n64, m64)
	}
	n, m := int(n64), int64(m64)
	// Grow the arrays by appending as bytes actually arrive rather
	// than trusting the header's n and m for an up-front allocation: a
	// crafted 24-byte file declaring n = 2^40 must fail on the first
	// missing offset, not commit terabytes first. Memory stays
	// proportional to input read so far.
	const allocChunk = 1 << 16
	capHint := func(declared int64) int {
		if declared < allocChunk {
			return int(declared)
		}
		return allocChunk
	}
	offsets := make([]int64, 0, capHint(int64(n)+1))
	for i := 0; i <= n; i++ {
		o, err := readU64()
		if err != nil {
			return nil, fmt.Errorf("%w: truncated offsets", ErrBadFormat)
		}
		offsets = append(offsets, int64(o))
	}
	dsts := make([]uint32, 0, capHint(m))
	var b4 [4]byte
	for i := int64(0); i < m; i++ {
		if _, err := io.ReadFull(br, b4[:]); err != nil {
			return nil, fmt.Errorf("%w: truncated edges", ErrBadFormat)
		}
		dsts = append(dsts, le.Uint32(b4[:]))
	}
	g, err := FromCSR(offsets, dsts)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	return g, nil
}

// Load reads a graph from path, choosing the format by extension:
// ".gr"/".bin" binary, anything else text.
func Load(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".gr") || strings.HasSuffix(path, ".bin") {
		return ReadBinary(f)
	}
	return ReadText(f)
}

// Save writes a graph to path, choosing the format by extension as in
// Load.
func (g *Graph) Save(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".gr") || strings.HasSuffix(path, ".bin") {
		return g.WriteBinary(f)
	}
	return g.WriteText(f)
}
