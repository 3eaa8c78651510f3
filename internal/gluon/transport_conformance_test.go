package gluon

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"
)

// Conformance suite: every Transport backend must satisfy the contract
// documented on the interface. The same scenario runs against the
// in-process MemTransport and a real localhost TCP mesh, with one
// driver goroutine per host (so -race checks the documented
// concurrent-use guarantees).

// conformanceCluster abstracts "one Transport view per host": the
// in-process backend is a single shared object, the TCP backend is one
// transport per simulated process.
type conformanceCluster struct {
	name string
	view func(h int) Transport
	done func()
}

func memCluster(t *testing.T, hosts int) *conformanceCluster {
	t.Helper()
	m := NewMemTransport(hosts)
	return &conformanceCluster{
		name: m.Backend(),
		view: func(h int) Transport { return m },
		done: func() { m.Close() },
	}
}

func tcpCluster(t *testing.T, hosts int, opts TCPOptions) *conformanceCluster {
	t.Helper()
	lns := make([]net.Listener, hosts)
	addrs := make([]string, hosts)
	for h := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen host %d: %v", h, err)
		}
		lns[h] = ln
		addrs[h] = ln.Addr().String()
	}
	views := make([]Transport, hosts)
	for h := range views {
		tr, err := NewTCPTransport(h, addrs, lns[h], opts)
		if err != nil {
			t.Fatalf("transport host %d: %v", h, err)
		}
		views[h] = tr
	}
	return &conformanceCluster{
		name: "tcp",
		view: func(h int) Transport { return views[h] },
		done: func() {
			for _, v := range views {
				v.Close()
			}
		},
	}
}

// confPayload is the deterministic message for one (exchange, from,
// to) channel slot; every third slot is the empty marker.
func confPayload(e, from, to int) []byte {
	if (e+from+to)%3 == 0 {
		return nil
	}
	n := 1 + (e*7+from*3+to)%61
	buf := make([]byte, n)
	for i := range buf {
		buf[i] = byte(e ^ from<<4 ^ to<<2 ^ i)
	}
	return buf
}

// barrier is a reusable all-host rendezvous for the driver goroutines.
type barrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	n       int
	arrived int
	gen     uint64
}

func newBarrier(n int) *barrier {
	b := &barrier{n: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *barrier) wait() {
	b.mu.Lock()
	defer b.mu.Unlock()
	gen := b.gen
	b.arrived++
	if b.arrived == b.n {
		b.arrived = 0
		b.gen++
		b.cond.Broadcast()
		return
	}
	for b.gen == gen {
		b.cond.Wait()
	}
}

func runConformance(t *testing.T, hosts, exchanges int, c *conformanceCluster) {
	t.Helper()
	defer c.done()
	bar := newBarrier(hosts)
	errCh := make(chan error, hosts)
	var wg sync.WaitGroup
	for h := 0; h < hosts; h++ {
		wg.Add(1)
		go func(h int) {
			defer wg.Done()
			tr := c.view(h)
			if got := tr.Hosts(); got != hosts {
				errCh <- fmt.Errorf("host %d: Hosts() = %d, want %d", h, got, hosts)
				return
			}
			if !tr.Local(h) {
				errCh <- fmt.Errorf("host %d: not local to its own view", h)
				return
			}
			for e := 0; e < exchanges; e++ {
				for to := 0; to < hosts; to++ {
					if to == h {
						continue
					}
					if err := tr.Send(e, h, to, confPayload(e, h, to)); err != nil {
						errCh <- fmt.Errorf("host %d: send ex %d to %d: %w", h, e, to, err)
						return
					}
				}
				// The in-process backend relies on the caller's BSP barrier
				// between the send and gather phases; remote backends don't
				// need it but must tolerate it.
				bar.wait()
				bufs, err := tr.Gather(e, h)
				if err != nil {
					errCh <- fmt.Errorf("host %d: gather ex %d: %w", h, e, err)
					return
				}
				if len(bufs) != hosts {
					errCh <- fmt.Errorf("host %d: gather ex %d: %d entries, want %d", h, e, len(bufs), hosts)
					return
				}
				for from := 0; from < hosts; from++ {
					want := confPayload(e, from, h)
					if from == h {
						want = nil
					}
					if len(want) == 0 && len(bufs[from]) == 0 {
						continue
					}
					if !bytes.Equal(bufs[from], want) {
						errCh <- fmt.Errorf("host %d: gather ex %d from %d: got %d bytes, want %d", h, e, from, len(bufs[from]), len(want))
						return
					}
				}
				// One all-reduce per exchange, interleaved with the data path
				// the way the SPMD engines drive it.
				op, want := ReduceSum, int64(exchanges*hosts*(hosts-1)/2+e*hosts)
				if e%2 == 1 {
					op, want = ReduceMax, int64(exchanges*(hosts-1)+e)
				}
				got, err := tr.AllReduce(h, int64(exchanges*h+e), op)
				if err != nil {
					errCh <- fmt.Errorf("host %d: allreduce ex %d: %w", h, e, err)
					return
				}
				if got != want {
					errCh <- fmt.Errorf("host %d: allreduce ex %d (%s) = %d, want %d", h, e, op, got, want)
					return
				}
				// Full barrier before the next exchange: the contract lets a
				// host run one exchange ahead, but the in-process inbox is
				// single-buffered and the dgalois driver never runs ahead.
				bar.wait()
			}
			errCh <- nil
		}(h)
	}
	wg.Wait()
	for h := 0; h < hosts; h++ {
		if err := <-errCh; err != nil {
			t.Fatal(err)
		}
	}

	// Stats: Messages/Bytes count exactly the non-empty logical
	// payloads; markers and reduce traffic land in Control; recovery
	// counters never leak into the logical tallies.
	for from := 0; from < hosts; from++ {
		tr := c.view(from)
		for to := 0; to < hosts; to++ {
			var wantMsgs, wantBytes, wantMarkers int64
			if from != to {
				for e := 0; e < exchanges; e++ {
					p := confPayload(e, from, to)
					if len(p) > 0 {
						wantMsgs++
						wantBytes += int64(len(p))
					} else {
						wantMarkers++
					}
				}
			}
			st := tr.Stats(from, to)
			if st.Messages != wantMsgs || st.Bytes != wantBytes {
				t.Errorf("%s: stats[%d→%d] = %d msgs / %d bytes, want %d / %d",
					c.name, from, to, st.Messages, st.Bytes, wantMsgs, wantBytes)
			}
			if st.Control < wantMarkers {
				t.Errorf("%s: stats[%d→%d].Control = %d, want ≥ %d empty markers",
					c.name, from, to, st.Control, wantMarkers)
			}
		}
	}
}

func TestTransportConformance(t *testing.T) {
	// hosts=1 pins the degenerate single-host cluster: no peers, so
	// Gather/AllReduce must complete immediately instead of waiting for
	// records that can never arrive.
	for _, hosts := range []int{1, 2, 4} {
		hosts := hosts
		t.Run(fmt.Sprintf("inproc/%d", hosts), func(t *testing.T) {
			runConformance(t, hosts, 12, memCluster(t, hosts))
		})
		t.Run(fmt.Sprintf("tcp/%d", hosts), func(t *testing.T) {
			runConformance(t, hosts, 12, tcpCluster(t, hosts, TCPOptions{}))
		})
	}
}

// TestTransportConformanceClose pins Close semantics: idempotent on
// both backends.
func TestTransportConformanceClose(t *testing.T) {
	for _, c := range []*conformanceCluster{
		memCluster(t, 2),
		tcpCluster(t, 2, TCPOptions{}),
	} {
		tr := c.view(0)
		if err := tr.Close(); err != nil {
			t.Errorf("%s: first Close: %v", c.name, err)
		}
		if err := tr.Close(); err != nil {
			t.Errorf("%s: second Close: %v", c.name, err)
		}
		c.done()
	}
}

// TestTCPTransportRunAhead pins the one-exchange-ahead buffering the
// contract requires of remote backends: a fast host may send exchange
// e+1 before a slow peer gathered e.
func TestTCPTransportRunAhead(t *testing.T) {
	c := tcpCluster(t, 2, TCPOptions{})
	defer c.done()
	fast, slow := c.view(0), c.view(1)

	for e := 0; e < 2; e++ {
		if err := fast.Send(e, 0, 1, confPayload(e, 0, 1)); err != nil {
			t.Fatalf("send ex %d: %v", e, err)
		}
	}
	for e := 0; e < 2; e++ {
		if err := slow.Send(e, 1, 0, nil); err != nil {
			t.Fatalf("marker ex %d: %v", e, err)
		}
		bufs, err := slow.Gather(e, 1)
		if err != nil {
			t.Fatalf("gather ex %d: %v", e, err)
		}
		if want := confPayload(e, 0, 1); !bytes.Equal(bufs[0], want) {
			t.Fatalf("gather ex %d: got %d bytes, want %d", e, len(bufs[0]), len(want))
		}
		if _, err := fast.Gather(e, 0); err != nil {
			t.Fatalf("fast gather ex %d: %v", e, err)
		}
	}
}

// TestTCPTransportStallDeadline pins the no-hang guarantee: a peer
// that never sends surfaces as a structured *TransportError naming the
// missing host, within the stall budget.
func TestTCPTransportStallDeadline(t *testing.T) {
	c := tcpCluster(t, 2, TCPOptions{DeadlineSteps: 10, StepInterval: 5 * time.Millisecond})
	defer c.done()

	start := time.Now()
	_, err := c.view(0).Gather(0, 0)
	if err == nil {
		t.Fatal("Gather with a silent peer returned nil error")
	}
	var te *TransportError
	if !errors.As(err, &te) {
		t.Fatalf("Gather error = %T (%v), want *TransportError", err, err)
	}
	if te.Host != 1 || te.Exchange != 0 {
		t.Fatalf("TransportError = %+v, want Host=1 Exchange=0", te)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("stall detection took %v, budget was ~50ms", elapsed)
	}
}

// TestTCPTransportCloseUnblocksGather pins that Close never strands a
// blocked Gather.
func TestTCPTransportCloseUnblocksGather(t *testing.T) {
	c := tcpCluster(t, 2, TCPOptions{})
	defer c.done()
	tr := c.view(0)

	done := make(chan error, 1)
	go func() {
		_, err := tr.Gather(0, 0)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	tr.Close()
	select {
	case err := <-done:
		var te *TransportError
		if !errors.As(err, &te) {
			t.Fatalf("Gather after Close = %v, want *TransportError", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Gather still blocked after Close")
	}
}

// TestTCPTransportCloseDoesNotWaitAStep pins Close's drain: the last
// operation's records are always unacked when Close begins (their acks
// would have ridden on a next record that never comes), so Close sends
// each peer a standalone ack, which the peer answers with the one it
// owes, and wakes on ack progress. After an exchange, four hosts
// closing together — four processes finishing a job — or one after the
// other — a harness tearing down its mesh — each return in well under
// one step, where polling the queue once per step cost every teardown
// at least one.
func TestTCPTransportCloseDoesNotWaitAStep(t *testing.T) {
	for _, together := range []bool{true, false} {
		name := "one by one"
		if together {
			name = "together"
		}
		t.Run(name, func(t *testing.T) {
			const hosts = 4
			step := 500 * time.Millisecond
			c := tcpCluster(t, hosts, TCPOptions{StepInterval: step})
			defer c.done()
			unacked := 0
			var wg sync.WaitGroup
			for h := 0; h < hosts; h++ {
				wg.Add(1)
				go func(h int) {
					defer wg.Done()
					tr := c.view(h)
					for to := 0; to < hosts; to++ {
						if to != h {
							if err := tr.Send(0, h, to, confPayload(1, h, to)); err != nil {
								t.Errorf("host %d send: %v", h, err)
							}
						}
					}
					if _, err := tr.Gather(0, h); err != nil {
						t.Errorf("host %d gather: %v", h, err)
					}
				}(h)
			}
			wg.Wait()
			for h := 0; h < hosts; h++ {
				for _, p := range c.view(h).(*TCPTransport).peers {
					if p != nil {
						unacked += p.pending()
					}
				}
			}
			if unacked == 0 {
				t.Error("no host had an unacked record at Close: the test no longer exercises the drain")
			}
			closeTimed := func(h int) {
				start := time.Now()
				c.view(h).Close()
				if took := time.Since(start); took >= step {
					t.Errorf("host %d: Close took %v, a full %v step or more", h, took, step)
				}
			}
			for h := 0; h < hosts; h++ {
				if together {
					wg.Add(1)
					go func(h int) { defer wg.Done(); closeTimed(h) }(h)
				} else {
					closeTimed(h)
				}
			}
			wg.Wait()
		})
	}
}

// confTerm is host h's term of exchange e's sum; every third exchange
// nobody proposes to.
func confTerm(e, h int) (term int64, proposes bool) {
	return int64(1000*e + 7*h - 3), e%3 != 2
}

// runConformanceSum drives the sum an exchange carries with `window`
// exchanges open at once: every host proposes its term (or, every third
// exchange, nothing), sends — in every other exchange only empty
// markers — and after gathering reads the same sum of every host's term.
// Backends that stream are gathered per sender in odd exchanges.
func runConformanceSum(t *testing.T, hosts, window int, c *conformanceCluster) {
	t.Helper()
	defer c.done()
	const rounds = 6
	bar := newBarrier(hosts)
	var wg sync.WaitGroup
	for h := 0; h < hosts; h++ {
		wg.Add(1)
		go func(h int) {
			defer wg.Done()
			tr := c.view(h)
			st, streams := tr.(Streamer)
			for base := 0; base < rounds*window; base += window {
				for e := base; e < base+window; e++ {
					if term, ok := confTerm(e, h); ok {
						if err := tr.Propose(e, h, term); err != nil {
							t.Errorf("host %d: propose ex %d: %v", h, e, err)
							return
						}
					}
					for to := 0; to < hosts; to++ {
						var payload []byte
						if e%2 == 1 {
							payload = confPayload(e, h, to)
						}
						if to != h {
							if err := tr.Send(e, h, to, payload); err != nil {
								t.Errorf("host %d: send ex %d to %d: %v", h, e, to, err)
								return
							}
						}
					}
				}
				bar.wait() // the in-process backend's BSP barrier
				for e := base; e < base+window; e++ {
					var err error
					if streams && e%2 == 1 {
						for from := 0; from < hosts && err == nil; from++ {
							_, err = st.GatherFrom(e, h, from)
						}
					} else {
						_, err = tr.Gather(e, h)
					}
					if err != nil {
						t.Errorf("host %d: gather ex %d: %v", h, e, err)
						return
					}
					var want int64
					for p := 0; p < hosts; p++ {
						if term, ok := confTerm(e, p); ok {
							want += term
						}
					}
					if got, err := tr.Sum(e, h); err != nil || got != want {
						t.Errorf("host %d: Sum(ex %d) = %d, %v; want %d", h, e, got, err, want)
						return
					}
					if hosts > 1 {
						if got, err := tr.Sum(e+1, h); err == nil {
							t.Errorf("host %d: Sum of ex %d, not gathered yet, = %d without error", h, e+1, got)
							return
						}
					}
				}
				bar.wait()
			}
		}(h)
	}
	wg.Wait()
	// The terms are framing: only the odd exchanges' payloads are messages.
	for from := 0; from < hosts; from++ {
		for to := 0; to < hosts; to++ {
			var want int64
			for e := 0; e < rounds*window; e++ {
				if from != to && e%2 == 1 && len(confPayload(e, from, to)) > 0 {
					want++
				}
			}
			if st := c.view(from).Stats(from, to); st.Messages != want {
				t.Errorf("%s: stats[%d→%d].Messages = %d, want %d", c.name, from, to, st.Messages, want)
			}
		}
	}
}

// TestTransportConformanceExchangeSum pins Propose/Sum on both backends,
// at strict BSP and with four exchanges open.
func TestTransportConformanceExchangeSum(t *testing.T) {
	for _, hosts := range []int{1, 2, 4} {
		for _, window := range []int{1, 4} {
			hosts, window := hosts, window
			t.Run(fmt.Sprintf("inproc/%d/window%d", hosts, window), func(t *testing.T) {
				m := NewMemTransportWindow(hosts, window)
				runConformanceSum(t, hosts, window, &conformanceCluster{name: m.Backend(),
					view: func(int) Transport { return m }, done: func() { m.Close() }})
			})
			t.Run(fmt.Sprintf("tcp/%d/window%d", hosts, window), func(t *testing.T) {
				runConformanceSum(t, hosts, window, tcpCluster(t, hosts, TCPOptions{}))
			})
		}
	}
}
