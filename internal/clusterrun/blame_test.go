package clusterrun

import (
	"net"
	"sync"
	"testing"
	"time"

	"mrbc/internal/brandes"
	"mrbc/internal/gluon"
)

// stallTransport stalls its host at the first record of the backward
// phase — the first Send after a vote came back zero, which ends the
// first batch's forward phase — until release is closed, and then fails
// that Send naming the host itself. Its transport keeps reading and
// acking meanwhile: the host is stuck, not dead. Forward rounds
// alternate the reduce that carries the vote with the broadcast, so the
// votes are the even-numbered sums.
type stallTransport struct {
	gluon.Transport
	sums     int
	backward bool
	once     sync.Once
	at       time.Time // when the stall began; read after stalled is closed
	stalled  chan struct{}
	release  chan struct{}
}

func (s *stallTransport) Sum(exchange, host int) (int64, error) {
	sum, err := s.Transport.Sum(exchange, host)
	s.backward = s.backward || err == nil && sum == 0 && s.sums%2 == 0
	s.sums++
	return sum, err
}

func (s *stallTransport) Send(exchange, from, to int, buf []byte) error {
	if !s.backward {
		return s.Transport.Send(exchange, from, to, buf)
	}
	s.once.Do(func() {
		s.at = time.Now()
		close(s.stalled)
		<-s.release
	})
	return &gluon.TransportError{Host: from, Exchange: exchange, Reason: "stalled host released"}
}

// TestBlameWithoutDirectLink stalls host 0 of a 4-host loopback CVC run
// in its first backward exchange. A backward exchange carries no vote,
// so host 0's non-partner — the diagonal host 3 — has no link to it
// there and cannot see it stall. Its partners 1 and 2 wait on it and
// must name it; host 3 completes the stalled exchange (its partners had
// sent) and then waits on them in the next one, so it must end in a
// structured error within its stall deadline — naming host 1, the first
// partner it gathers from, not host 0 — and never hang. Two accusations
// against one, the coordinator's survivor vote still picks host 0.
func TestBlameWithoutDirectLink(t *testing.T) {
	if testing.Short() {
		t.Skip("localhost TCP cluster; skipped in -short")
	}
	const hosts, victim, diagonal = 4, 0, 3
	g, path := savedGraph(t)
	opts := gluon.TCPOptions{DeadlineSteps: 40, StepInterval: 10 * time.Millisecond}
	lns := make([]net.Listener, hosts)
	addrs := make([]string, hosts)
	for h := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[h], addrs[h] = ln, ln.Addr().String()
	}
	views := make([]gluon.Transport, hosts)
	for h := range views {
		tr, err := gluon.NewTCPTransport(h, addrs, lns[h], opts)
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		views[h] = tr
	}
	stall := &stallTransport{Transport: views[victim], stalled: make(chan struct{}), release: make(chan struct{})}
	views[victim] = stall
	pt, err := BuildPartitioning(g, "cartesian", hosts)
	if err != nil {
		t.Fatal(err)
	}
	topo := gluon.NewTopology(pt)
	if topo.Partners(victim, diagonal) || !topo.Partners(victim, 1) || !topo.Partners(victim, 2) {
		t.Fatal("the 2×2 grid's partner sets are not row ∪ column")
	}

	results := make([]*JobResult, hosts)
	errs := make([]error, hosts)
	took := make([]time.Duration, hosts)
	var wg sync.WaitGroup
	var survivors sync.WaitGroup
	for h := 0; h < hosts; h++ {
		wg.Add(1)
		if h != victim {
			survivors.Add(1)
		}
		go func(h int) {
			defer wg.Done()
			if h != victim {
				defer survivors.Done()
			}
			spec := JobSpec{Engine: "mrbcdist", GraphPath: path, Partition: "cartesian", Hosts: hosts, Host: h,
				Sources: brandes.FirstKSources(g, 0, 16), BatchSize: 4}
			results[h], errs[h] = RunJob(&spec, views[h], nil, nil)
			select {
			case <-stall.stalled:
				took[h] = time.Since(stall.at)
			default:
			}
		}(h)
	}
	select {
	case <-stall.stalled:
	case <-time.After(30 * time.Second):
		t.Fatal("host 0 never reached the backward phase")
	}
	done := make(chan struct{})
	go func() { survivors.Wait(); close(done) }()
	budget := time.Duration(opts.DeadlineSteps) * opts.StepInterval
	select {
	case <-done:
	case <-time.After(30 * budget):
		t.Fatalf("the survivors of a stalled host did not fail within %v: a hang", 30*budget)
	}
	close(stall.release)
	wg.Wait()

	for h := 0; h < hosts; h++ {
		if errs[h] != nil {
			t.Fatalf("host %d: unstructured error %v", h, errs[h])
		}
		if results[h] == nil || results[h].Fault == nil {
			t.Fatalf("host %d finished a run whose host 0 stalled", h)
		}
		t.Logf("host %d: fault names host %d after %v: %s", h, results[h].Fault.Host, took[h], results[h].Fault.Reason)
	}
	for _, p := range []int{1, 2} {
		if got := results[p].Fault.Host; got != victim {
			t.Errorf("partner %d names host %d, want the stalled host %d", p, got, victim)
		}
	}
	if got := results[diagonal].Fault.Host; got != 1 {
		t.Errorf("non-partner %d names host %d, want host 1, the partner it was waiting on", diagonal, got)
	}
	if took[diagonal] > 10*budget {
		t.Errorf("non-partner %d failed %v after the stall, past ten stall budgets (%v)", diagonal, took[diagonal], budget)
	}
	if v, failed := identifyVictim(results, errs); !failed || v != victim {
		t.Errorf("identifyVictim = %d (failed %v), want the stalled host %d", v, failed, victim)
	}
}
