package graph

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

// The reader fuzz targets assert one property: arbitrary input —
// truncated, corrupt, or adversarial — either parses into a
// structurally valid graph or returns an error. It must never panic
// and never allocate unboundedly from header-declared sizes.

// fuzzMaxN caps header-declared vertex counts inside the fuzz targets.
// A few-byte text file can legitimately declare millions of isolated
// vertices (CSR is O(n)), which is valid input but useless for finding
// parser bugs and turns the fuzzer into an allocation benchmark.
const fuzzMaxN = 1 << 20

// declaresHugeN reports whether a text-format input declares a vertex
// count past the fuzz cap via an "n <count>" or "p sp <count> <m>"
// header line.
func declaresHugeN(data []byte) bool {
	for _, line := range strings.Split(string(data), "\n") {
		fields := strings.Fields(strings.TrimSpace(line))
		var decl string
		switch {
		case len(fields) == 2 && fields[0] == "n":
			decl = fields[1]
		case len(fields) == 4 && fields[0] == "p" && fields[1] == "sp":
			decl = fields[2]
		default:
			continue
		}
		if v, err := strconv.ParseInt(decl, 10, 64); err == nil && v > fuzzMaxN {
			return true
		}
	}
	return false
}

// checkGraph walks the parsed graph's CSR to catch out-of-range,
// inconsistent or non-canonical structure the parser let through:
// every row must be strictly increasing and free of self-loops.
func checkGraph(t *testing.T, g *Graph) {
	t.Helper()
	n := g.NumVertices()
	var m int64
	for u := 0; u < n; u++ {
		row := g.OutNeighbors(uint32(u))
		for i, v := range row {
			if int(v) >= n {
				t.Fatalf("parser admitted edge target %d with n=%d", v, n)
			}
			if v == uint32(u) {
				t.Fatalf("parser admitted self-loop at %d", u)
			}
			if i > 0 && v <= row[i-1] {
				t.Fatalf("parser admitted row %d out of order: %v", u, row)
			}
			m++
		}
	}
	if m != g.NumEdges() {
		t.Fatalf("NumEdges %d but CSR walk found %d", g.NumEdges(), m)
	}
}

func FuzzReadText(f *testing.F) {
	f.Add([]byte("n 4\n0 1\n1 2\n2 3\n"))
	f.Add([]byte("# comment\n0 1\n"))
	f.Add([]byte("n 2\n0 5\n")) // ID exceeds declared count
	f.Add([]byte("n -1\n"))
	f.Add([]byte("0 1 2\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 || declaresHugeN(data) {
			t.Skip()
		}
		g, err := ReadText(bytes.NewReader(data))
		if err != nil {
			return
		}
		checkGraph(t, g)
	})
}

func FuzzReadBinary(f *testing.F) {
	var buf bytes.Buffer
	g := FromEdges(4, [][2]uint32{{0, 1}, {1, 2}, {2, 3}, {3, 0}})
	if err := g.WriteBinary(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)-3])           // truncated edge array
	f.Add(valid[:20])                     // truncated header
	f.Add([]byte("MRBCGRPH"))             // magic only
	f.Add(bytes.Repeat([]byte{0xff}, 24)) // bad magic, huge sizes
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			t.Skip()
		}
		g, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		checkGraph(t, g)
		// A successfully parsed graph must survive a write/read cycle
		// unchanged (WriteBinary is canonical).
		var out bytes.Buffer
		if err := g.WriteBinary(&out); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		g2, err := ReadBinary(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if g2.NumVertices() != g.NumVertices() || g2.NumEdges() != g.NumEdges() {
			t.Fatalf("round trip changed shape: %d/%d -> %d/%d",
				g.NumVertices(), g.NumEdges(), g2.NumVertices(), g2.NumEdges())
		}
	})
}

func FuzzReadDIMACS(f *testing.F) {
	f.Add([]byte("c road net\np sp 3 2\na 1 2 5\na 2 3 7\n"))
	f.Add([]byte("p sp 2 1\na 1 3 1\n")) // vertex out of range
	f.Add([]byte("a 1 2 1\n"))           // arc before problem line
	f.Add([]byte("p sp 2 2\na 1 2 1\n")) // arc count mismatch
	f.Add([]byte("p sp 2 1\na 1 2 0\n")) // zero weight
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 || declaresHugeN(data) {
			t.Skip()
		}
		wg, err := ReadDIMACS(bytes.NewReader(data))
		if err != nil {
			return
		}
		checkGraph(t, wg.Unweighted())
	})
}
