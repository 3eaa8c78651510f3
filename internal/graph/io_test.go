package graph

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"
)

func TestTextRoundTrip(t *testing.T) {
	g := FromEdges(5, [][2]uint32{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}, {0, 3}})
	var buf bytes.Buffer
	if err := g.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !sameGraph(g, g2) {
		t.Fatal("text round-trip changed the graph")
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randomGraph(rng, 200, 1500)
	var buf bytes.Buffer
	if err := g.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !sameGraph(g, g2) {
		t.Fatal("binary round-trip changed the graph")
	}
}

func TestReadTextHeaderAndComments(t *testing.T) {
	in := "# a comment\nn 10\n\n0 1\n1 9\n"
	g, err := ReadText(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 10 || g.NumEdges() != 2 {
		t.Fatalf("n=%d m=%d", g.NumVertices(), g.NumEdges())
	}
}

func TestReadTextInfersVertexCount(t *testing.T) {
	g, err := ReadText(strings.NewReader("0 5\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 6 {
		t.Fatalf("inferred n = %d, want 6", g.NumVertices())
	}
}

func TestReadTextErrors(t *testing.T) {
	cases := []string{
		"n x\n",      // bad header value
		"0\n",        // missing endpoint
		"0 a\n",      // bad ID
		"n 2\n0 5\n", // ID exceeds declared count
		"n -3\n",     // negative count
		"1 2 3\n",    // too many fields
	}
	for _, in := range cases {
		if _, err := ReadText(strings.NewReader(in)); !errors.Is(err, ErrBadFormat) {
			t.Errorf("input %q: err = %v, want ErrBadFormat", in, err)
		}
	}
}

func TestReadBinaryErrors(t *testing.T) {
	g := FromEdges(3, [][2]uint32{{0, 1}, {1, 2}})
	var buf bytes.Buffer
	if err := g.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	// Truncations at every interesting boundary.
	for _, cut := range []int{0, 4, 8, 16, 24, len(full) - 1} {
		if _, err := ReadBinary(bytes.NewReader(full[:cut])); !errors.Is(err, ErrBadFormat) {
			t.Errorf("cut %d: err = %v, want ErrBadFormat", cut, err)
		}
	}

	// Corrupt magic.
	bad := append([]byte(nil), full...)
	bad[0] ^= 0xFF
	if _, err := ReadBinary(bytes.NewReader(bad)); !errors.Is(err, ErrBadFormat) {
		t.Errorf("bad magic: err = %v", err)
	}

	// Out-of-range edge target.
	bad = append([]byte(nil), full...)
	// layout: magic(8) n(8) m(8) offsets(4*8) dsts...
	dstOff := 8 + 8 + 8 + 4*8
	bad[dstOff] = 0xFF
	bad[dstOff+1] = 0xFF
	if _, err := ReadBinary(bytes.NewReader(bad)); !errors.Is(err, ErrBadFormat) {
		t.Errorf("bad edge target: err = %v", err)
	}
}

// TestReadBinaryRejectsNonCanonicalRows pins the canonical-row check:
// a well-formed dump whose row is unsorted, repeats a target or holds a
// self-loop is refused, as FromCSR refuses it in memory.
func TestReadBinaryRejectsNonCanonicalRows(t *testing.T) {
	for name, row := range map[string][]uint32{
		"unsorted":  {2, 1},
		"duplicate": {1, 1},
		"self-loop": {0, 1},
	} {
		offsets := []int64{0, 2, 2, 2}
		var buf bytes.Buffer
		buf.Write(binaryMagic[:])
		le := binary.LittleEndian
		buf.Write(le.AppendUint64(nil, 3))
		buf.Write(le.AppendUint64(nil, 2))
		for _, o := range offsets {
			buf.Write(le.AppendUint64(nil, uint64(o)))
		}
		for _, d := range row {
			buf.Write(le.AppendUint32(nil, d))
		}
		if _, err := ReadBinary(&buf); !errors.Is(err, ErrBadFormat) {
			t.Errorf("%s: err = %v, want ErrBadFormat", name, err)
		}
		if _, err := FromCSR(offsets, row); err == nil {
			t.Errorf("%s: FromCSR accepted %v", name, row)
		}
	}
}

// TestFromCSR pins the constructor: a canonical CSR becomes the graph
// the Builder makes of the same edges, in-edge view included, and each
// kind of malformed offsets is refused.
func TestFromCSR(t *testing.T) {
	g, err := FromCSR([]int64{0, 2, 3, 3}, []uint32{1, 2, 0})
	if err != nil {
		t.Fatal(err)
	}
	want := FromEdges(3, [][2]uint32{{0, 1}, {0, 2}, {1, 0}})
	if !sameGraph(g, want) || g.InDegree(0) != 1 || g.InNeighbors(2)[0] != 0 {
		t.Fatalf("FromCSR built %v", g)
	}
	if g, err := FromCSR([]int64{0}, nil); err != nil || g.NumVertices() != 0 {
		t.Fatalf("empty CSR: %v, %v", g, err)
	}
	for name, c := range map[string]struct {
		offsets []int64
		dsts    []uint32
	}{
		"no offsets":   {nil, nil},
		"offset start": {[]int64{1, 1}, []uint32{0}},
		"offset end":   {[]int64{0, 1}, []uint32{1, 0}},
		"decreasing":   {[]int64{0, 2, 1, 2}, []uint32{1, 2}},
		"out of range": {[]int64{0, 1, 1}, []uint32{2}},
	} {
		if _, err := FromCSR(c.offsets, c.dsts); err == nil {
			t.Errorf("%s: FromCSR accepted %v %v", name, c.offsets, c.dsts)
		}
	}
}

func TestLoadSaveByExtension(t *testing.T) {
	dir := t.TempDir()
	g := FromEdges(4, [][2]uint32{{0, 1}, {1, 2}, {2, 3}})
	for _, name := range []string{"g.txt", "g.gr", "g.bin"} {
		path := filepath.Join(dir, name)
		if err := g.Save(path); err != nil {
			t.Fatalf("%s: save: %v", name, err)
		}
		g2, err := Load(path)
		if err != nil {
			t.Fatalf("%s: load: %v", name, err)
		}
		if !sameGraph(g, g2) {
			t.Fatalf("%s: round trip changed graph", name)
		}
	}
	if _, err := Load(filepath.Join(dir, "missing.txt")); err == nil {
		t.Fatal("loading a missing file should fail")
	}
}

func sameGraph(a, b *Graph) bool {
	if a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() {
		return false
	}
	same := true
	a.Edges(func(u, v uint32) {
		if !b.HasEdge(u, v) {
			same = false
		}
	})
	return same
}
