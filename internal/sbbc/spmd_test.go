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
	"mrbc/internal/graph"
	"mrbc/internal/mrbcdist"
	"mrbc/internal/obs"
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

// socketCounts is what one SPMD run over a loopback TCP mesh did,
// summed over its hosts: the rounds every host ran, the exchanges each
// host's cluster completed, and the data records (non-empty Sends) the
// mesh wrote.
type socketCounts struct {
	rounds    int
	exchanges int64
	records   int64
}

// runSockets runs one engine as hosts SPMD processes over a fresh
// loopback TCP mesh; run is one process's whole job.
func runSockets(t *testing.T, hosts int, run func(tr gluon.Transport, m *obs.Registry) (dgalois.Stats, error)) socketCounts {
	t.Helper()
	lns := make([]net.Listener, hosts)
	addrs := make([]string, hosts)
	for h := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[h], addrs[h] = ln, ln.Addr().String()
	}
	trs := make([]*gluon.TCPTransport, hosts)
	for h := range trs {
		tr, err := gluon.NewTCPTransport(h, addrs, lns[h], gluon.TCPOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		trs[h] = tr
	}
	regs := make([]*obs.Registry, hosts)
	stats := make([]dgalois.Stats, hosts)
	errs := make([]error, hosts)
	var wg sync.WaitGroup
	for h := range trs {
		regs[h] = obs.NewRegistry()
		wg.Add(1)
		go func(h int) {
			defer wg.Done()
			stats[h], errs[h] = run(trs[h], regs[h])
		}(h)
	}
	wg.Wait()
	var c socketCounts
	for h := range trs {
		if errs[h] != nil {
			t.Fatalf("host %d: %v", h, errs[h])
		}
		x := regs[h].Snapshot().Histograms["dgalois_exchange_seconds"].Count
		if h == 0 {
			c.rounds, c.exchanges = stats[h].Rounds, x
		} else if stats[h].Rounds != c.rounds || x != c.exchanges {
			t.Fatalf("host %d ran %d rounds and %d exchanges, host 0 %d and %d", h, stats[h].Rounds, x, c.rounds, c.exchanges)
		}
		for to := 0; to < hosts; to++ {
			c.records += trs[h].Stats(h, to).Messages
		}
	}
	return c
}

// TestSocketsMRBCVersusSBBC records the paper's headline on real
// sockets: MRBC (k = 32, depth 1) and SBBC each run as 4 SPMD hosts
// over a loopback TCP mesh on the Cartesian cut, and their rounds,
// exchanges and data records are pinned exactly (an empty marker or a
// standalone ack is no data record). On the crawl and the road grid,
// whose long tails and diameter are what SBBC pays a round per level
// for, MRBC must run at least 10× fewer exchanges. About 4 s, most of
// it SBBC on the crawl.
func TestSocketsMRBCVersusSBBC(t *testing.T) {
	if testing.Short() {
		t.Skip("localhost TCP clusters; skipped in -short")
	}
	const hosts = 4
	for _, c := range []struct {
		name        string
		g           *graph.Graph
		sources     int
		mrbc, sbbc  socketCounts
		tenfoldLess bool
	}{
		{"WebCrawl(11,8,3,80)", gen.WebCrawl(11, 8, 3, 80, 1), 128,
			socketCounts{922, 1844, 2758}, socketCounts{20460, 40792, 10177}, true},
		{"RMAT(11,7)", gen.RMAT(11, 7, 1), 128,
			socketCounts{294, 588, 2750}, socketCounts{1360, 2592, 10334}, false},
		{"RoadGrid(64,64)", gen.RoadGrid(64, 64, 1), 64,
			socketCounts{364, 728, 2713}, socketCounts{6578, 13092, 31081}, true},
	} {
		pt := partition.CartesianCut(c.g, hosts)
		sources := brandes.FirstKSources(c.g, 0, c.sources)
		m := runSockets(t, hosts, func(tr gluon.Transport, reg *obs.Registry) (dgalois.Stats, error) {
			_, st, err := mrbcdist.RunChecked(c.g, pt, sources, mrbcdist.Options{BatchSize: 32, Transport: tr, Metrics: reg})
			return st, err
		})
		s := runSockets(t, hosts, func(tr gluon.Transport, reg *obs.Registry) (dgalois.Stats, error) {
			_, st, err := RunOptsChecked(c.g, pt, sources, Options{Transport: tr, Metrics: reg})
			return st, err
		})
		if m != c.mrbc {
			t.Errorf("%s: MRBC ran %+v, want %+v", c.name, m, c.mrbc)
		}
		if s != c.sbbc {
			t.Errorf("%s: SBBC ran %+v, want %+v", c.name, s, c.sbbc)
		}
		if c.tenfoldLess && 10*m.exchanges > s.exchanges {
			t.Errorf("%s: MRBC ran %d exchanges, SBBC %d: less than 10× fewer", c.name, m.exchanges, s.exchanges)
		}
	}
}
