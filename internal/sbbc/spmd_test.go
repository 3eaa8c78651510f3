package sbbc

import (
	"math"
	"net"
	"sync"
	"sync/atomic"
	"testing"

	"mrbc/internal/brandes"
	"mrbc/internal/dgalois"
	"mrbc/internal/gen"
	"mrbc/internal/gluon"
	"mrbc/internal/partition"
)

// sendCounter counts the records one SPMD process sends.
type sendCounter struct {
	gluon.Transport
	sends atomic.Int64
}

func (s *sendCounter) Send(exchange, from, to int, buf []byte) error {
	s.sends.Add(1)
	return s.Transport.Send(exchange, from, to, buf)
}

// TestSPMDMatchesInProcess runs SBBC as four SPMD processes over a
// loopback TCP mesh and holds the result against the in-process run:
// the same score bits and the same Rounds, Bytes, Messages and
// Encoding. A source of eccentricity L runs L + 1 forward rounds — the
// last one idle — and L backward rounds, so 2·Rounds − sources
// exchanges in all; the forward reduces, (Rounds + sources)/2 of them,
// carry the vote and send a record on every ordered pair, every other
// exchange only on the 8 ordered pairs of partners of the 2×2 Cartesian
// grid.
func TestSPMDMatchesInProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("localhost TCP cluster; skipped in -short")
	}
	const hosts, links = 4, 8
	g := gen.RMAT(7, 8, 5)
	pt := partition.CartesianCut(g, hosts)
	sources := brandes.FirstKSources(g, 0, 8)
	want, wantStats := Run(g, pt, sources)

	lns := make([]net.Listener, hosts)
	addrs := make([]string, hosts)
	for h := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[h], addrs[h] = ln, ln.Addr().String()
	}
	views := make([]*sendCounter, hosts)
	for h := range views {
		tr, err := gluon.NewTCPTransport(h, addrs, lns[h], gluon.TCPOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		views[h] = &sendCounter{Transport: tr}
	}
	perHost := make([][]float64, hosts)
	stats := make([]dgalois.Stats, hosts)
	errs := make([]error, hosts)
	var wg sync.WaitGroup
	for h := range views {
		wg.Add(1)
		go func(h int) {
			defer wg.Done()
			perHost[h], stats[h], errs[h] = RunOptsChecked(g, pt, sources, Options{Transport: views[h]})
		}(h)
	}
	wg.Wait()

	got := make([]float64, len(want))
	var sum dgalois.Stats
	var sends int64
	for h, err := range errs {
		if err != nil {
			t.Fatalf("host %d: %v", h, err)
		}
		for v, s := range perHost[h] {
			got[v] += s
		}
		if stats[h].Rounds != wantStats.Rounds {
			t.Errorf("host %d ran %d rounds, in-process %d", h, stats[h].Rounds, wantStats.Rounds)
		}
		sum.Bytes += stats[h].Bytes
		sum.Messages += stats[h].Messages
		sum.Encoding.Add(stats[h].Encoding)
		sends += views[h].sends.Load()
	}
	for v := range want {
		if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
			t.Fatalf("vertex %d: SPMD score %x, in-process %x", v, math.Float64bits(got[v]), math.Float64bits(want[v]))
		}
	}
	if sum.Bytes != wantStats.Bytes || sum.Messages != wantStats.Messages || sum.Encoding != wantStats.Encoding {
		t.Errorf("SPMD volume %d B / %d msgs / %+v, in-process %d / %d / %+v",
			sum.Bytes, sum.Messages, sum.Encoding, wantStats.Bytes, wantStats.Messages, wantStats.Encoding)
	}
	exchanges := int64(2*wantStats.Rounds - len(sources))
	votes := int64(wantStats.Rounds+len(sources)) / 2
	if want := votes*hosts*(hosts-1) + (exchanges-votes)*links; sends != want {
		t.Errorf("the mesh sent %d records, want %d votes × %d pairs + %d other exchanges × %d partner links = %d",
			sends, votes, hosts*(hosts-1), exchanges-votes, links, want)
	}
}
