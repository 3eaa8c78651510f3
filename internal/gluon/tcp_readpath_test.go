package gluon

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"sync"
	"testing"
	"time"
)

// Tests for who reads and who writes a TCP connection: the gathering
// goroutine reads its sender's connection itself, the step loop drains
// it once a tick, and a write never waits on the socket.

// TestTCPLargeRecordsBothWaysBeforeGather pins the non-blocking write
// and its flusher: each of two hosts sends the other a record larger
// than the loopback socket buffers, then a small one on a later
// exchange, and only then do both gather. The sends return in less than
// a step — before the peer's tick drain could have read the record off
// a blocking write —, both gathers finish within the stall budget, and
// every payload arrives byte for byte, in send order.
func TestTCPLargeRecordsBothWaysBeforeGather(t *testing.T) {
	if testing.Short() {
		t.Skip("moves 32 MiB over loopback")
	}
	// A long step: copying and checksumming 16 MiB takes a good part of a
	// second under the race detector, and a blocking write would wait a
	// whole step for the peer's tick drain.
	opts := TCPOptions{StepInterval: 2 * time.Second, DeadlineSteps: 5}
	c := tcpCluster(t, 2, opts)
	payload := func(e, h int) []byte {
		n := 100 + h
		if e == 0 {
			n = 16<<20 + h
		}
		buf := make([]byte, n)
		for i := range buf {
			buf[i] = byte(i*7 + e*3 + h)
		}
		return buf
	}
	want := [2][2][]byte{{payload(0, 0), payload(1, 0)}, {payload(0, 1), payload(1, 1)}}
	sent := newBarrier(2)
	errs := make([]error, 2)
	sending, took := make([]time.Duration, 2), make([]time.Duration, 2)
	var wg sync.WaitGroup
	for h := 0; h < 2; h++ {
		wg.Add(1)
		go func(h int) {
			defer wg.Done()
			tr := c.view(h)
			start := time.Now()
			for e := 0; e < 2; e++ {
				if err := tr.Send(e, h, 1-h, want[h][e]); err != nil {
					errs[h] = err
				}
			}
			sending[h] = time.Since(start)
			sent.wait()
			for e := 0; e < 2 && errs[h] == nil; e++ {
				got, err := tr.GatherFrom(e, h, 1-h)
				if err != nil {
					errs[h] = err
				} else if !bytes.Equal(got, want[1-h][e]) {
					errs[h] = errors.New("payload differs from the one sent")
				}
			}
			took[h] = time.Since(start)
		}(h)
	}
	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(2 * opts.budget()):
		// Left open: Close would wait on the stuck writes too.
		t.Fatalf("the hosts are still sending or gathering after %v: their writes deadlocked", 2*opts.budget())
	}
	c.done()
	for h, err := range errs {
		if err != nil {
			t.Fatalf("host %d: %v", h, err)
		}
		if sending[h] >= opts.StepInterval {
			t.Errorf("host %d: sending took %v, a %v step or more: a write waited on the socket", h, sending[h], opts.StepInterval)
		}
		if budget := opts.budget(); took[h] > budget {
			t.Errorf("host %d took %v, beyond the %v stall budget", h, took[h], budget)
		}
	}
}

// TestTCPBusyHostStillAcks pins the tick drain: a live host that does
// not gather for three stall budgets still files and acks what it is
// sent within a step or two, so its peer neither retransmits nor
// declares it dead — mostStalledPeer keeps naming only dead hosts.
func TestTCPBusyHostStillAcks(t *testing.T) {
	a, b := relayedPair(t, faultNone, 0, faultNone, 0)
	if err := a.Send(0, 0, 1, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	busy := 3 * time.Duration(fastSteps.DeadlineSteps) * fastSteps.StepInterval
	took := waitDrained(t, a, 1, busy)
	t.Logf("acked after %v without a gather (step %v)", took, fastSteps.StepInterval)
	time.Sleep(busy - took)
	got, err := b.GatherFrom(0, 1, 0)
	if err != nil || !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatalf("gather after the busy spell: % x, %v", got, err)
	}
	if err := a.peerError(); err != nil {
		t.Fatalf("the busy host was declared dead: %v", err)
	}
	if st := a.Stats(0, 1); st.Retries != 0 {
		t.Fatalf("the busy host's ack came after the retransmit timer: %d retries", st.Retries)
	}
}

// rawSender dials tr's listener as host 1 of a 2-host cluster, with a
// hello, and returns the connection for a test to write frames on.
func rawSender(t *testing.T, tr *TCPTransport) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", tr.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if _, err := conn.Write(EncodeFrame(0, helloRecord(1, 0))); err != nil {
		t.Fatal(err)
	}
	return conn
}

// dataFrame is the frame of host 1's record seq on the exchange.
func dataFrame(seq uint32, exchange int, payload []byte) []byte {
	body := make([]byte, dataHeadLen, dataHeadLen+len(payload))
	body[0] = recData
	binary.LittleEndian.PutUint32(body[1:], uint32(exchange))
	return EncodeFrame(seq, append(body, payload...))
}

// lonelyHost is host 0 of a 2-host cluster whose host 1 is the test:
// nothing is sent to host 1, so its address is never dialed.
func lonelyHost(t *testing.T, ln net.Listener, opts TCPOptions) *TCPTransport {
	t.Helper()
	tr, err := NewTCPTransport(0, []string{ln.Addr().String(), "127.0.0.1:1"}, ln, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	return tr
}

// TestTCPReadTimeoutKeepsPartialFrame pins that a read timeout never
// consumes part of a frame: a record arrives in two pieces several
// steps apart — cut inside the header, and mid-payload of a frame that
// fits the connection's buffer and of one that does not — while the
// gather's reads time out step after step, and the payload still comes
// out whole.
func TestTCPReadTimeoutKeepsPartialFrame(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	opts := TCPOptions{StepInterval: 2 * time.Millisecond, DeadlineSteps: 1000}
	tr := lonelyHost(t, ln, opts)
	conn := rawSender(t, tr)
	for e, c := range []struct{ size, cut int }{{1 << 10, 7}, {1 << 10, 600}, {3 * recvBufSize, 5 * 1024}, {3 * recvBufSize, 11}} {
		payload := bytes.Repeat([]byte{byte(e + 1)}, c.size)
		frame := dataFrame(uint32(e+1), e, payload)
		if _, err := conn.Write(frame[:c.cut]); err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() {
			got, err := tr.GatherFrom(e, 0, 1)
			if err == nil && !bytes.Equal(got, payload) {
				err = errors.New("payload differs from the one sent")
			}
			done <- err
		}()
		time.Sleep(10 * opts.StepInterval)
		if _, err := conn.Write(frame[c.cut:]); err != nil {
			t.Fatal(err)
		}
		if err := <-done; err != nil {
			t.Fatalf("%d-byte record cut at %d: %v", c.size, c.cut, err)
		}
	}
}

// TestTCPGatherBeforeSenderDials pins the fallback of a gather whose
// sender's connection is not up yet: it waits, and reads once the
// sender's hello registers the connection.
func TestTCPGatherBeforeSenderDials(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	opts := TCPOptions{StepInterval: 2 * time.Millisecond, DeadlineSteps: 1000}
	tr := lonelyHost(t, ln, opts)
	done := make(chan error, 1)
	go func() {
		got, err := tr.GatherFrom(0, 0, 1)
		if err == nil && !bytes.Equal(got, []byte("late")) {
			err = errors.New("payload differs from the one sent")
		}
		done <- err
	}()
	time.Sleep(10 * opts.StepInterval)
	conn := rawSender(t, tr)
	if _, err := conn.Write(dataFrame(1, 0, []byte("late"))); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}
