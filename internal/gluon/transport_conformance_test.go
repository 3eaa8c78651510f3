package gluon

import (
	"bytes"
	"encoding/binary"
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
	// free: the backend needs no barrier between an exchange's sends and
	// its gathers, nor between exchanges, so the host goroutines run
	// without one and every gather waits on the wire alone.
	free bool
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

// viewCluster is the in-process mesh: one MemTransport view per host,
// driven without barriers.
func viewCluster(t *testing.T, hosts, window int) *conformanceCluster {
	t.Helper()
	m := NewMemTransportWindow(hosts, window)
	views := make([]Transport, hosts)
	for h := range views {
		views[h] = m.View(h)
	}
	return &conformanceCluster{
		name: "views",
		view: func(h int) Transport { return views[h] },
		done: func() { m.Close() },
		free: true,
	}
}

// sync is the host goroutines' barrier, skipped on a backend that needs
// none.
func (c *conformanceCluster) sync(b *barrier) {
	if !c.free {
		b.wait()
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
				// The shared in-process backend relies on the caller's BSP
				// barrier between the send and gather phases; remote backends
				// and views don't need it, and the TCP mesh tolerates it.
				c.sync(bar)
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
				// host run one exchange ahead, but the shared in-process
				// inbox is single-buffered.
				c.sync(bar)
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
	// payloads; markers, AllReduce's included, land in Control; recovery
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
		t.Run(fmt.Sprintf("views/%d", hosts), func(t *testing.T) {
			runConformance(t, hosts, 12, viewCluster(t, hosts, 1))
		})
	}
}

// TestTransportConformanceClose pins Close semantics: idempotent on
// both backends.
func TestTransportConformanceClose(t *testing.T) {
	for _, c := range []*conformanceCluster{
		memCluster(t, 2),
		tcpCluster(t, 2, TCPOptions{}),
		viewCluster(t, 2, 1),
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

// TestTCPAllReduceInOpenWindow: AllReduce is an exchange of empty
// markers on a negative identifier, filed in the box map the data
// exchanges use. Run while exchange e is sent but not yet gathered, it
// must fold right (max over negative values included) and leave e's
// payloads and sum intact; one a peer never joins names that peer and
// its exchange. At the record level, a data record whose exchange field
// has the top bit set lands in the box AllReduce gathers.
func TestTCPAllReduceInOpenWindow(t *testing.T) {
	const hosts, e = 3, 5
	c := tcpCluster(t, hosts, TCPOptions{DeadlineSteps: 10, StepInterval: 5 * time.Millisecond})
	defer c.done()
	errCh := make(chan error, hosts)
	for h := 0; h < hosts; h++ {
		go func(h int) {
			errCh <- func() error {
				tr := c.view(h)
				if err := tr.Propose(e, h, int64(10*h+1)); err != nil {
					return err
				}
				for to := 0; to < hosts; to++ {
					if to != h {
						if err := tr.Send(e, h, to, confPayload(e, h, to)); err != nil {
							return err
						}
					}
				}
				// Values −3, −2, 1: sum −4, max 1.
				for _, r := range []struct {
					op   ReduceOp
					want int64
				}{{ReduceSum, -4}, {ReduceMax, 1}} {
					got, err := tr.AllReduce(h, int64(h*h-3), r.op)
					if err != nil {
						return fmt.Errorf("host %d: allreduce %s: %w", h, r.op, err)
					}
					if got != r.want {
						return fmt.Errorf("host %d: allreduce %s = %d, want %d", h, r.op, got, r.want)
					}
				}
				for from := 0; from < hosts; from++ {
					buf, err := tr.GatherFrom(e, h, from)
					if err != nil {
						return fmt.Errorf("host %d: gather ex %d from %d: %w", h, e, from, err)
					}
					if want := confPayload(e, from, h); from != h && !bytes.Equal(buf, want) {
						return fmt.Errorf("host %d: ex %d from %d: got % x, want % x", h, e, from, buf, want)
					}
				}
				if sum, err := tr.Sum(e, h); err != nil || sum != 1+11+21 {
					return fmt.Errorf("host %d: sum of ex %d = %d, %v; want 33", h, e, sum, err)
				}
				return nil
			}()
		}(h)
	}
	for h := 0; h < hosts; h++ {
		if err := <-errCh; err != nil {
			t.Fatal(err)
		}
	}
	// Call 3 without host 2: hosts 0 and 1 stall on exchange −3.
	for h := 0; h < 2; h++ {
		go func(h int) {
			_, err := c.view(h).AllReduce(h, 0, ReduceSum)
			errCh <- err
		}(h)
	}
	for h := 0; h < 2; h++ {
		var te *TransportError
		if err := <-errCh; !errors.As(err, &te) || te.Host != 2 || te.Exchange != -3 {
			t.Fatalf("stalled allreduce: %v, want a *TransportError naming host 2 in exchange -3", err)
		}
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// Host 1 exists only as the sender named to receiveRecord.
	tr, err := NewTCPTransport(0, []string{ln.Addr().String(), "127.0.0.1:1"}, ln,
		TCPOptions{DeadlineSteps: 4, StepInterval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	rec := make([]byte, dataHeadLen)
	rec[0] = recData
	binary.LittleEndian.PutUint32(rec[1:], 0xffffffff) // exchange −1: AllReduce call 1
	binary.LittleEndian.PutUint64(rec[9:], 9)
	if !tr.receiveRecord(1, 1, rec, nil) {
		t.Fatal("record for exchange −1 refused")
	}
	if got, err := tr.AllReduce(0, 4, ReduceSum); err != nil || got != 13 {
		t.Fatalf("allreduce over the filed record = %d, %v; want 13", got, err)
	}
	if _, err := tr.AllReduce(0, 4, 7); err == nil {
		t.Fatal("allreduce with an unknown op accepted")
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
// Odd exchanges are gathered per sender.
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
				c.sync(bar) // the shared in-process backend's BSP barrier
				for e := base; e < base+window; e++ {
					var err error
					if e%2 == 1 {
						for from := 0; from < hosts && err == nil; from++ {
							_, err = tr.GatherFrom(e, h, from)
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
				c.sync(bar)
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
			t.Run(fmt.Sprintf("views/%d/window%d", hosts, window), func(t *testing.T) {
				runConformanceSum(t, hosts, window, viewCluster(t, hosts, window))
			})
		}
	}
}

// silentLink reports whether the link between hosts a and b of a
// four-host cluster carries nothing on an exchange without a vote: the
// diagonals of a 2×2 grid, which share no proxy under a Cartesian cut.
func silentLink(a, b int) bool { return a != b && a+b == 3 }

// confVote reports whether exchange e carries a vote on every link:
// every third does.
func confVote(e int) bool { return e%3 == 0 }

// confSubsetVote reports whether exchange e carries a vote on its partner
// links alone, leaving the silent links without a record: one in three.
func confSubsetVote(e int) bool { return e%3 == 1 }

// linkPayload is confPayload on a partner link and the empty marker on a
// silent one.
func linkPayload(e, from, to int) []byte {
	if from == to || silentLink(from, to) {
		return nil
	}
	return confPayload(e, from, to)
}

// runConformanceSilent drives the exchange pattern of a partner-sparse
// cluster with `window` exchanges open at once: a vote exchange
// proposes every host's term and sends on every link, the silent links'
// records being empty markers; any other exchange leaves the silent
// links without a record, and their receivers declare them silent. A
// subset vote proposes too, but its sum leaves out the terms of the
// senders its receiver declared silent. Even exchanges are gathered
// whole, odd ones per sender.
func runConformanceSilent(t *testing.T, hosts, window, exchanges int, c *conformanceCluster) {
	t.Helper()
	defer c.done()
	bar := newBarrier(hosts)
	var wg sync.WaitGroup
	for h := 0; h < hosts; h++ {
		wg.Add(1)
		go func(h int) {
			defer wg.Done()
			tr := c.view(h)
			for base := 0; base < exchanges; base += window {
				for e := base; e < base+window; e++ {
					if confVote(e) || confSubsetVote(e) {
						term, _ := confTerm(e, h)
						if err := tr.Propose(e, h, term); err != nil {
							t.Errorf("host %d: propose ex %d: %v", h, e, err)
							return
						}
					}
					for to := 0; to < hosts; to++ {
						if to == h || silentLink(h, to) && !confVote(e) {
							continue
						}
						if err := tr.Send(e, h, to, linkPayload(e, h, to)); err != nil {
							t.Errorf("host %d: send ex %d to %d: %v", h, e, to, err)
							return
						}
					}
				}
				c.sync(bar) // the shared in-process backend's BSP barrier
				for e := base; e < base+window; e++ {
					for from := 0; from < hosts; from++ {
						if silentLink(from, h) && !confVote(e) {
							if err := tr.Silent(e, h, from); err != nil {
								t.Errorf("host %d: silent ex %d from %d: %v", h, e, from, err)
								return
							}
						}
					}
					var bufs [][]byte
					var err error
					if e%2 == 0 {
						bufs, err = tr.Gather(e, h)
					}
					for from := 0; from < hosts && err == nil; from++ {
						var buf []byte
						if e%2 == 0 {
							buf = bufs[from]
						} else if buf, err = tr.GatherFrom(e, h, from); err != nil {
							break
						}
						if w := linkPayload(e, from, h); len(buf)+len(w) > 0 && !bytes.Equal(buf, w) {
							err = fmt.Errorf("from %d: got %d bytes, want %d", from, len(buf), len(w))
						}
					}
					if err != nil {
						t.Errorf("host %d: gather ex %d: %v", h, e, err)
						return
					}
					if !confVote(e) && !confSubsetVote(e) {
						continue
					}
					var sum int64
					for p := 0; p < hosts; p++ {
						if term, _ := confTerm(e, p); confVote(e) || !silentLink(p, h) {
							sum += term
						}
					}
					if got, err := tr.Sum(e, h); err != nil || got != sum {
						t.Errorf("host %d: Sum(ex %d) = %d, %v; want %d", h, e, got, err, sum)
						return
					}
				}
				c.sync(bar)
			}
		}(h)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	// A silent link's only records are the vote exchanges' empty markers
	// (the run is too short for a tick to flush a standalone ack); every
	// other link carries its payloads and markers as usual.
	votes := int64((exchanges + 2) / 3)
	for from := 0; from < hosts; from++ {
		for to := 0; to < hosts; to++ {
			var want ChannelStats
			for e := 0; e < exchanges && from != to; e++ {
				switch p := linkPayload(e, from, to); {
				case silentLink(from, to):
				case len(p) > 0:
					want.Messages++
					want.Bytes += int64(len(p))
				default:
					want.Control++
				}
			}
			if silentLink(from, to) {
				want.Control = votes
			}
			st := c.view(from).Stats(from, to)
			if st.Messages != want.Messages || st.Bytes != want.Bytes || silentLink(from, to) && st.Control != want.Control {
				t.Errorf("%s: stats[%d→%d] = %d msgs / %d B / %d control, want %d / %d / %d", c.name, from, to,
					st.Messages, st.Bytes, st.Control, want.Messages, want.Bytes, want.Control)
			}
		}
	}
	for h := 0; h < hosts; h++ {
		if n := openExchanges(c.view(h)); n != 0 {
			t.Errorf("%s: host %d holds %d open exchanges after the run", c.name, h, n)
		}
	}
}

// openExchanges counts the exchanges a backend still holds open: TCP
// boxes, in-process slots.
func openExchanges(tr Transport) int {
	switch tr := tr.(type) {
	case *TCPTransport:
		tr.mu.Lock()
		defer tr.mu.Unlock()
		return len(tr.boxes)
	case *MemView:
		return openExchanges(tr.MemTransport)
	case *MemTransport:
		n := 0
		for _, s := range *tr.slots.Load() {
			if s.id.Load() >= 0 {
				n++
			}
		}
		return n
	}
	panic(fmt.Sprintf("openExchanges: %T", tr))
}

// TestTransportConformanceSilent pins declared-silent links on both
// backends, at strict BSP and with four exchanges open: 2 000 exchanges
// in which a third carry a vote over every link and the rest leave the
// grid diagonals without a record, half of those with a vote on the
// other links. Payloads, sums and the silent links' Stats are exact, and
// no exchange stays open. The TCP step is long
// enough that no tick falls inside the run, so no standalone ack blurs
// the Control count, and short deadlines are not what the test relies
// on: a receiver that waited for a silent sender would stall it outright.
func TestTransportConformanceSilent(t *testing.T) {
	const hosts = 4
	exchanges := 2000
	if testing.Short() {
		exchanges = 240
	}
	for _, window := range []int{1, 4} {
		window := window
		t.Run(fmt.Sprintf("inproc/window%d", window), func(t *testing.T) {
			m := NewMemTransportWindow(hosts, window)
			runConformanceSilent(t, hosts, window, exchanges, &conformanceCluster{name: m.Backend(),
				view: func(int) Transport { return m }, done: func() { m.Close() }})
		})
		t.Run(fmt.Sprintf("tcp/window%d", window), func(t *testing.T) {
			runConformanceSilent(t, hosts, window, exchanges,
				tcpCluster(t, hosts, TCPOptions{StepInterval: 10 * time.Second, DeadlineSteps: 3}))
		})
		t.Run(fmt.Sprintf("views/window%d", window), func(t *testing.T) {
			runConformanceSilent(t, hosts, window, exchanges, viewCluster(t, hosts, window))
		})
	}
}

// TestTransportSilentReadsEmptyAtOnce: a sender declared silent reads
// as empty through Gather and through GatherFrom, without a wait — on
// TCP a wait would trip the 50 ms stall deadline — and in process even
// where the exchange's slot still holds an earlier exchange's payload
// on that link.
func TestTransportSilentReadsEmptyAtOnce(t *testing.T) {
	for _, c := range []*conformanceCluster{
		memCluster(t, 2),
		tcpCluster(t, 2, TCPOptions{DeadlineSteps: 10, StepInterval: 5 * time.Millisecond}),
		viewCluster(t, 2, 1),
	} {
		a, b := c.view(0), c.view(1)
		for e := 0; e < 3; e++ {
			if err := a.Send(e, 0, 1, confPayload(1, 0, 1)); err != nil {
				t.Fatalf("%s: send ex %d: %v", c.name, e, err)
			}
			if e == 0 {
				if err := b.Send(e, 1, 0, confPayload(1, 1, 0)); err != nil {
					t.Fatalf("%s: send ex %d: %v", c.name, e, err)
				}
			} else if err := a.Silent(e, 0, 1); err != nil {
				t.Fatalf("%s: silent ex %d: %v", c.name, e, err)
			}
			var got []byte
			var err error
			switch e {
			case 0, 1:
				var bufs [][]byte
				if bufs, err = a.Gather(e, 0); err == nil {
					got = bufs[1]
				}
			case 2:
				got, err = a.GatherFrom(e, 0, 1)
			}
			if want := confPayload(1, 1, 0); err != nil || e > 0 && len(got) != 0 || e == 0 && !bytes.Equal(got, want) {
				t.Fatalf("%s: ex %d: host 0 read %d bytes from host 1, %v", c.name, e, len(got), err)
			}
			if got, err := b.GatherFrom(e, 1, 0); err != nil || !bytes.Equal(got, confPayload(1, 0, 1)) {
				t.Fatalf("%s: ex %d: host 1 read %d bytes from host 0, %v", c.name, e, len(got), err)
			}
		}
		for h := 0; h < 2; h++ {
			if n := openExchanges(c.view(h)); n != 0 {
				t.Errorf("%s: host %d holds %d open exchanges", c.name, h, n)
			}
		}
		c.done()
	}
}

// TestViewsCloseWakesBlockedGather: on the in-process mesh a gather
// waits for the sender it names and nothing else — host 0 reads host 2's
// record while host 1 has sent nothing — and Close wakes a gather and an
// all-reduce that wait on a host that never comes, each with a
// *TransportError naming what it waited for; later calls fail at once.
func TestViewsCloseWakesBlockedGather(t *testing.T) {
	c := viewCluster(t, 3, 1)
	a, b, z := c.view(0), c.view(1), c.view(2)
	if err := z.Send(0, 2, 0, []byte{7}); err != nil {
		t.Fatal(err)
	}
	if got, err := a.GatherFrom(0, 0, 2); err != nil || !bytes.Equal(got, []byte{7}) {
		t.Fatalf("gather from the host that sent: %v, %v", got, err)
	}
	gathered, reduced := make(chan error, 1), make(chan error, 1)
	go func() {
		_, err := a.GatherFrom(0, 0, 1)
		gathered <- err
	}()
	go func() {
		_, err := b.AllReduce(1, 1, ReduceSum)
		reduced <- err
	}()
	select {
	case err := <-gathered:
		t.Fatalf("gather returned before its sender sent or the mesh closed: %v", err)
	case err := <-reduced:
		t.Fatalf("all-reduce returned before every host joined: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	c.done()
	for name, ch := range map[string]chan error{"gather": gathered, "all-reduce": reduced} {
		var te *TransportError
		if err := <-ch; !errors.As(err, &te) {
			t.Fatalf("%s after Close: %v, want a *TransportError", name, err)
		} else if name == "gather" && (te.Host != 1 || te.Exchange != 0) {
			t.Fatalf("gather after Close blames host %d in exchange %d, want host 1 in exchange 0", te.Host, te.Exchange)
		}
	}
	if _, err := z.GatherFrom(1, 2, 0); err == nil {
		t.Fatal("a gather after Close succeeded")
	}
}
