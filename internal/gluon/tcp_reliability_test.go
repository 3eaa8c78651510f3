package gluon

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Loss tests for the TCP backend's reliability layer, in-package: a
// small TCP relay between two transports drops, duplicates or severs
// one chosen record frame, and the tests pin what the ack rules promise
// — retransmission, duplicate discard, re-dial, piggybacked acks, the
// tick flush — without a multi-process cluster. Steps are 2 ms, so a
// retransmission is 16 ms away and the whole file runs in about a
// second.

type relayFault int

const (
	faultNone relayFault = iota
	faultDrop
	faultDup
	faultSever
	faultLossy
)

// relay forwards connections to target. In the dialed (forward)
// direction it passes gluon frames one by one and applies fault to the
// at-th record frame it sees (0-based over all connections, hellos not
// counted), once; the reverse direction is copied verbatim. faultLossy
// instead rolls a die seeded with at for every record frame: 1 % are
// dropped, 1 % duplicated, 1 % held back behind the next frame, and
// 0.5 % get one bit flipped past the length field, which fails the
// checksum and makes the receiver drop the connection.
type relay struct {
	target string
	fault  relayFault
	at     int64
	frames atomic.Int64

	mu  sync.Mutex
	rng *rand.Rand
}

// roll returns a number in [0, 1000) and a second roll for the caller's
// own use.
func (r *relay) roll() (permille, aux int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.rng.Intn(1000), r.rng.Int()
}

func startRelay(t *testing.T, target string, fault relayFault, at int) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("relay listen: %v", err)
	}
	r := &relay{target: target, fault: fault, at: int64(at), rng: rand.New(rand.NewSource(int64(at)))}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			client, err := ln.Accept()
			if err != nil {
				return
			}
			go r.serve(client)
		}
	}()
	return ln.Addr().String()
}

func (r *relay) serve(client net.Conn) {
	defer client.Close()
	server, err := net.Dial("tcp", r.target)
	if err != nil {
		return
	}
	defer server.Close()
	go func() {
		io.Copy(client, server)
		client.Close()
	}()
	br := bufio.NewReader(client)
	var held []byte
	for hello := true; ; hello = false {
		seq, payload, _, err := readFrame(br, nil, newFrame)
		if err != nil {
			return
		}
		frame := EncodeFrame(seq, payload)
		if !hello && r.fault == faultLossy {
			switch x, aux := r.roll(); {
			case x < 10:
				continue
			case x < 20:
				server.Write(frame)
			case x < 30 && held == nil:
				held = frame
				continue
			case x < 35:
				frame[12+aux%(len(frame)-12)] ^= 1 << (aux % 7)
			}
			if _, err := server.Write(frame); err != nil {
				return
			}
			if held != nil {
				server.Write(held)
				held = nil
			}
			continue
		}
		if !hello && r.frames.Add(1)-1 == r.at {
			switch r.fault {
			case faultDrop:
				continue
			case faultSever:
				return
			case faultDup:
				server.Write(frame)
			}
		}
		if _, err := server.Write(frame); err != nil {
			return
		}
	}
}

var fastSteps = TCPOptions{StepInterval: 2 * time.Millisecond, DeadlineSteps: 250}

// relayedPair builds hosts 0 and 1 with a relay in front of each
// listener: toB faults frames host 0 sends, toA frames host 1 sends.
func relayedPair(t *testing.T, toB relayFault, atB int, toA relayFault, atA int) (a, b *TCPTransport) {
	t.Helper()
	lnA, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	lnB, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	viaA := startRelay(t, lnA.Addr().String(), toA, atA)
	viaB := startRelay(t, lnB.Addr().String(), toB, atB)
	a, err = NewTCPTransport(0, []string{lnA.Addr().String(), viaB}, lnA, fastSteps)
	if err != nil {
		t.Fatal(err)
	}
	b, err = NewTCPTransport(1, []string{viaA, lnB.Addr().String()}, lnB, fastSteps)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		var wg sync.WaitGroup
		for _, tr := range []*TCPTransport{a, b} {
			wg.Add(1)
			go func(tr *TCPTransport) { defer wg.Done(); tr.Close() }(tr)
		}
		wg.Wait()
	})
	return a, b
}

// pending is the peer's unacked-queue length after applying every ack
// received so far.
func (p *tcpPeer) pending() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.trimLocked()
	return len(p.unacked)
}

// waitDrained waits for t's queue to peer to empty and returns how long
// that took.
func waitDrained(t *testing.T, tr *TCPTransport, peer int, within time.Duration) time.Duration {
	t.Helper()
	start := time.Now()
	for tr.peers[peer].pending() > 0 {
		if time.Since(start) > within {
			t.Fatalf("host %d: %d records to %d still unacked after %v", tr.self, tr.peers[peer].pending(), peer, within)
		}
		time.Sleep(200 * time.Microsecond)
	}
	return time.Since(start)
}

// pingPong runs exchanges [from, to) between the pair: each host sends
// its confPayload and gathers the other's.
func pingPong(t *testing.T, a, b *TCPTransport, from, to int) {
	t.Helper()
	for e := from; e < to; e++ {
		if err := a.Send(e, 0, 1, confPayload(e, 0, 1)); err != nil {
			t.Fatalf("a send ex %d: %v", e, err)
		}
		got, err := b.GatherFrom(e, 1, 0)
		if err != nil {
			t.Fatalf("b gather ex %d: %v", e, err)
		}
		if want := confPayload(e, 0, 1); !bytes.Equal(got, want) {
			t.Fatalf("b ex %d: got %x want %x", e, got, want)
		}
		if err := b.Send(e, 1, 0, confPayload(e, 1, 0)); err != nil {
			t.Fatalf("b send ex %d: %v", e, err)
		}
		got, err = a.GatherFrom(e, 0, 1)
		if err != nil {
			t.Fatalf("a gather ex %d: %v", e, err)
		}
		if want := confPayload(e, 1, 0); !bytes.Equal(got, want) {
			t.Fatalf("a ex %d: got %x want %x", e, got, want)
		}
	}
}

// emptyMarkers counts the empty confPayloads on from → to over
// exchanges [0, n).
func emptyMarkers(from, to, n int) (markers int64) {
	for e := 0; e < n; e++ {
		if len(confPayload(e, from, to)) == 0 {
			markers++
		}
	}
	return markers
}

// A dropped data record is retransmitted, delivered once, and later
// exchanges are not disturbed by the retransmission's duplicates.
func TestTCPReliabilityDroppedRecordRedelivered(t *testing.T) {
	t.Parallel()
	a, b := relayedPair(t, faultDrop, 1, faultNone, 0)
	pingPong(t, a, b, 0, 4) // host 0's exchange-1 record is the dropped frame
	if st := a.Stats(0, 1); st.Retries == 0 {
		t.Fatalf("the dropped record was never retransmitted: %+v", st)
	}
	var msgs, volume int64
	for e := 0; e < 4; e++ {
		if n := len(confPayload(e, 0, 1)); n > 0 {
			msgs++
			volume += int64(n)
		}
	}
	if st := a.Stats(0, 1); st.Messages != msgs || st.Bytes != volume {
		t.Fatalf("retransmission leaked into the logical tallies: %+v, want %d msgs / %d bytes", st, msgs, volume)
	}
	b.mu.Lock()
	inSeq, open := b.inSeq[0], len(b.boxes)
	b.mu.Unlock()
	if inSeq != 4 || open != 0 {
		t.Fatalf("receiver accepted seq %d with %d boxes open, want 4 and 0", inSeq, open)
	}
}

// A duplicated record is discarded and re-acked at once.
func TestTCPReliabilityDuplicateDiscarded(t *testing.T) {
	t.Parallel()
	a, b := relayedPair(t, faultDup, 2, faultNone, 0)
	pingPong(t, a, b, 0, 4)
	b.mu.Lock()
	inSeq := b.inSeq[0]
	b.mu.Unlock()
	if inSeq != 4 {
		t.Fatalf("receiver accepted seq %d, want 4", inSeq)
	}
	if st := a.Stats(0, 1); st.Retries != 0 {
		t.Fatalf("a duplicate on the wire caused %d retransmissions", st.Retries)
	}
	// Control is host 1's empty markers plus its standalone acks, and
	// the duplicate's is the one ack this run needs.
	if st := b.Stats(1, 0); st.Control-emptyMarkers(1, 0, 4) < 1 {
		t.Fatalf("duplicate was not re-acked: %+v", st)
	}
}

// A severed connection is re-dialed and the queue retransmitted.
func TestTCPReliabilitySeveredConnectionRedialed(t *testing.T) {
	t.Parallel()
	a, b := relayedPair(t, faultSever, 1, faultNone, 0)
	pingPong(t, a, b, 0, 4)
	if st := a.Stats(0, 1); st.Redials == 0 {
		t.Fatalf("severed connection was never re-dialed: %+v", st)
	}
}

// Losing a record loses the ack it carried. The peer whose ack went
// missing must not stall: the retransmission carries the ack again, or
// the peer's own retransmission is answered as a duplicate.
func TestTCPReliabilityLostPiggybackedAck(t *testing.T) {
	t.Parallel()
	// Host 1's first record — the reply that acks host 0's seq 1 — is
	// dropped.
	a, b := relayedPair(t, faultNone, 0, faultDrop, 0)
	pingPong(t, a, b, 0, 3)
	waitDrained(t, a, 1, time.Second)
	waitDrained(t, b, 0, time.Second)
	if a.peerError() != nil || b.peerError() != nil {
		t.Fatalf("lost ack put a peer in error: %v / %v", a.peerError(), b.peerError())
	}
}

// A sender whose peer never sends anything back is acked by the tick
// flush — two steps by the rule — well before its retransmit timer.
// Not parallel: the assertion is about wall-clock steps.
func TestTCPReliabilityOneDirectionalFlowAckedByTick(t *testing.T) {
	a, b := relayedPair(t, faultNone, 0, faultNone, 0)
	for e := 0; e < 5; e++ {
		if err := a.Send(e, 0, 1, []byte{byte(e), 1, 2}); err != nil {
			t.Fatal(err)
		}
		if _, err := b.GatherFrom(e, 1, 0); err != nil {
			t.Fatal(err)
		}
	}
	took := waitDrained(t, a, 1, time.Second)
	t.Logf("one-directional flow acked after %v (step %v)", took, fastSteps.StepInterval)
	if st := a.Stats(0, 1); st.Retries != 0 {
		t.Fatalf("tick flush came after the retransmit timer: %d retries", st.Retries)
	}
	if st := b.Stats(1, 0); st.Control == 0 {
		t.Fatal("no standalone ack was written for a flow nothing could piggyback on")
	}
}

// On a healthy busy link the queue is rarely empty at a tick — the
// newest record is always waiting for the reply that acks it — so a
// retransmit timer that counted "queue non-empty" steps would fire
// every RetrySteps. It counts steps without ack progress: 200 steps of
// ping-pong (25 retry periods; 2 s at the default step) retransmit
// nothing, and the acks ride on the records. Not parallel: a starved
// scheduler would look like a stalled link.
func TestTCPReliabilityBusyLinkNeverRetransmits(t *testing.T) {
	a, b := relayedPair(t, faultNone, 0, faultNone, 0)
	deadline := time.Now().Add(200 * fastSteps.StepInterval)
	e := 0
	for ; time.Now().Before(deadline); e += 50 {
		pingPong(t, a, b, e, e+50)
	}
	for h, st := range []ChannelStats{a.Stats(0, 1), b.Stats(1, 0)} {
		if st.Retries != 0 {
			t.Fatalf("host %d: %d spurious retransmissions over %d loss-free exchanges", h, st.Retries, e)
		}
		// Control is this side's empty markers plus its standalone acks.
		if acks := st.Control - emptyMarkers(h, 1-h, e); acks*10 > int64(e) {
			t.Fatalf("host %d wrote %d standalone acks over %d exchanges: acks are not riding on records", h, acks, e)
		}
	}
}

// A stall names the peer that is actually silent. The live peer has
// nothing to send either — it is blocked on the same exchange — so
// only its tick flush keeps it from looking like the stalled one.
func TestTCPReliabilitySilentPeerIsNamed(t *testing.T) {
	for _, dead := range []bool{false, true} {
		name := "silent"
		if dead {
			name = "dead"
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			opts := TCPOptions{StepInterval: 2 * time.Millisecond, DeadlineSteps: 40}
			c := tcpCluster(t, 3, opts)
			defer c.done()
			if dead {
				c.view(2).Close()
			}
			errs := make([]error, 2)
			var wg sync.WaitGroup
			for h := 0; h < 2; h++ {
				wg.Add(1)
				go func(h int) {
					defer wg.Done()
					tr := c.view(h)
					for to := 0; to < 3; to++ {
						if to != h {
							tr.Send(0, h, to, []byte{byte(h)})
						}
					}
					_, errs[h] = tr.Gather(0, h)
				}(h)
			}
			wg.Wait()
			for h, err := range errs {
				var te *TransportError
				if !errors.As(err, &te) {
					t.Fatalf("host %d: Gather = %v, want *TransportError", h, err)
				}
				if te.Host != 2 {
					t.Fatalf("host %d blamed peer %d, want 2: %v", h, te.Host, te)
				}
			}
		})
	}
}

// After any number of BSP operations a peer's unacked queue holds at
// most the records of the last two: every record a host receives acks
// what it sent before. (A queue trimmed only by a periodic ack would
// hold a step's worth of traffic.) And the frames it trims are the
// buffers the next sends use.
func TestTCPReliabilityUnackedQueueBounded(t *testing.T) {
	t.Parallel()
	const hosts, rounds = 4, 200
	c := tcpCluster(t, hosts, TCPOptions{})
	defer c.done()
	bar := newBarrier(hosts)
	worst := make([]int, hosts)
	var wg sync.WaitGroup
	for h := 0; h < hosts; h++ {
		wg.Add(1)
		go func(h int) {
			defer wg.Done()
			tr := c.view(h).(*TCPTransport)
			for e := 0; e < rounds; e++ {
				for to := 0; to < hosts; to++ {
					if to != h {
						if err := tr.Send(e, h, to, confPayload(e, h, to)); err != nil {
							t.Error(err)
							return
						}
					}
				}
				if _, err := tr.Gather(e, h); err != nil {
					t.Error(err)
					return
				}
				if _, err := tr.AllReduce(h, int64(e), ReduceMax); err != nil {
					t.Error(err)
					return
				}
				for _, p := range tr.peers {
					if p != nil {
						worst[h] = max(worst[h], p.pending())
					}
				}
				bar.wait()
			}
		}(h)
	}
	wg.Wait()
	for h, n := range worst {
		if n > 2 {
			t.Errorf("host %d held %d unacked records to one peer after an operation, want ≤ 2", h, n)
		}
	}
	tr := c.view(0).(*TCPTransport)
	for _, p := range tr.peers {
		if p == nil {
			continue
		}
		p.mu.Lock()
		free := len(p.free)
		p.mu.Unlock()
		if free == 0 {
			t.Errorf("host 0 → %d: no acked frame was kept for reuse", p.host)
		}
	}
}

// Steady-state sends reuse acked frame buffers, reads reuse the buffers
// of gathered payloads and GatherFrom reuses boxes: a ping-pong round
// allocates only what the test itself does.
func TestTCPReliabilitySendPathAllocs(t *testing.T) {
	c := tcpCluster(t, 2, TCPOptions{})
	defer c.done()
	a, b := c.view(0).(*TCPTransport), c.view(1).(*TCPTransport)
	e := 0
	pingPong(t, a, b, e, e+8)
	e += 8
	allocs := testing.AllocsPerRun(200, func() {
		pingPong(t, a, b, e, e+1)
		e++
	})
	// confPayload allocates: the two messages sent, the two expected.
	if allocs > 4 {
		t.Fatalf("a ping-pong round allocates %.0f objects, want ≤ 4 (the test's own payloads)", allocs)
	}
}
