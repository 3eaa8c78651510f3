package gluon

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"testing"
	"time"
)

// epochPair builds a 2-host TCP cluster where each side runs at its
// own membership epoch.
func epochPair(t *testing.T, epoch0, epoch1 int) (a, b Transport) {
	t.Helper()
	lns := make([]net.Listener, 2)
	addrs := make([]string, 2)
	for h := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen host %d: %v", h, err)
		}
		lns[h] = ln
		addrs[h] = ln.Addr().String()
	}
	opts := TCPOptions{DeadlineSteps: 20, StepInterval: 5 * time.Millisecond}
	o0, o1 := opts, opts
	o0.Epoch = epoch0
	o1.Epoch = epoch1
	t0, err := NewTCPTransport(0, addrs, lns[0], o0)
	if err != nil {
		t.Fatal(err)
	}
	t1, err := NewTCPTransport(1, addrs, lns[1], o1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { t0.Close(); t1.Close() })
	return t0, t1
}

// TestTCPEpochMatchDelivers pins that a non-zero shared epoch is
// transparent: hellos carry it, receivers accept it, payloads flow.
func TestTCPEpochMatchDelivers(t *testing.T) {
	t0, t1 := epochPair(t, 7, 7)
	if err := t0.Send(0, 0, 1, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if err := t1.Send(0, 1, 0, nil); err != nil {
		t.Fatal(err)
	}
	bufs, err := t1.Gather(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if string(bufs[0]) != "payload" {
		t.Fatalf("payload corrupted across epoch-7 cluster: %q", bufs[0])
	}
}

// TestTCPEpochMismatchIsRejected pins the membership fence: a dialer
// from another epoch — a killed host's socket still retransmitting, or
// a survivor that has not rolled over — is dropped at its hello, so
// the receiver's exchange times out instead of accepting stale data.
func TestTCPEpochMismatchIsRejected(t *testing.T) {
	t0, t1 := epochPair(t, 1, 2)
	if err := t0.Send(0, 0, 1, []byte("stale")); err != nil {
		t.Fatal(err)
	}
	_, err := t1.Gather(0, 1)
	if err == nil {
		t.Fatal("Gather accepted a payload from a mismatched epoch")
	}
	var te *TransportError
	if !errors.As(err, &te) {
		t.Fatalf("Gather error = %T (%v), want *TransportError", err, err)
	}
	if te.Host != 0 {
		t.Fatalf("TransportError blamed host %d, want the stale dialer 0", te.Host)
	}
}

// TestTCPLegacyHelloRefused pins the one hello form: a listener holds
// the 13-byte [1][u32 host][u32 epoch][u32 wire] of its own epoch and
// wire version open, and closes, whatever its own epoch, on the
// pre-epoch 5-byte hello, on the pre-version 9-byte one, and on a
// 13-byte hello of another wire version, the one before included.
func TestTCPLegacyHelloRefused(t *testing.T) {
	dial := func(epoch, helloLen int, wire uint32) error {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs := []string{ln.Addr().String(), "127.0.0.1:1"}
		tr, err := NewTCPTransport(0, addrs, ln, TCPOptions{Epoch: epoch})
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		conn, err := net.Dial("tcp", addrs[0])
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		hello := make([]byte, 13)
		hello[0] = recHello
		binary.LittleEndian.PutUint32(hello[1:], 1)
		binary.LittleEndian.PutUint32(hello[5:], uint32(epoch))
		binary.LittleEndian.PutUint32(hello[9:], wire)
		if err := writeFrame(conn, 0, hello[:helloLen]); err != nil {
			t.Fatal(err)
		}
		// An accepted hello leaves the connection open (the read blocks
		// until our deadline); a rejected one is closed by the server.
		conn.SetReadDeadline(time.Now().Add(250 * time.Millisecond))
		_, err = conn.Read(make([]byte, 1))
		return err
	}
	for _, epoch := range []int{0, 3} {
		if err := dial(epoch, 13, wireVersion); !isTimeout(err) {
			t.Fatalf("epoch-%d server should hold its own epoch's and version's hello open, got %v", epoch, err)
		}
		for _, n := range []int{5, 9} {
			if err := dial(epoch, n, wireVersion); isTimeout(err) {
				t.Fatalf("epoch-%d server held a %d-byte hello open; want rejection", epoch, n)
			}
		}
		// The previous build's and a later one's.
		for _, wire := range []uint32{wireVersion - 1, wireVersion + 1} {
			if err := dial(epoch, 13, wire); isTimeout(err) {
				t.Fatalf("epoch-%d server held a wire-version-%d hello open; want rejection", epoch, wire)
			}
		}
	}
}

func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// TestReadFrameAndHelloHost pins what a relay reads off a dialed
// connection: ReadFrame returns each frame's bytes as written, HelloHost
// names the dialer of the hello a transport writes and nothing else,
// and a corrupted frame is an error.
func TestReadFrameAndHelloHost(t *testing.T) {
	hello := EncodeFrame(0, helloRecord(3, 7))
	record := append(make([]byte, dataHeadLen), 1, 2, 3)
	record[0] = recData
	data := EncodeFrame(1, record)
	br := bufio.NewReader(bytes.NewReader(append(append([]byte(nil), hello...), data...)))
	for _, want := range [][]byte{hello, data} {
		got, err := ReadFrame(br)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("ReadFrame = %x, %v; want %x", got, err, want)
		}
	}
	if h := HelloHost(hello); h != 3 {
		t.Fatalf("HelloHost(hello of host 3) = %d", h)
	}
	legacy := EncodeFrame(0, helloRecord(3, 7)[:5])
	for name, frame := range map[string][]byte{"data": data, "5-byte hello": legacy, "truncated": hello[:len(hello)-1]} {
		if h := HelloHost(frame); h != -1 {
			t.Errorf("HelloHost(%s) = %d, want -1", name, h)
		}
	}
	corrupt := append([]byte(nil), hello...)
	corrupt[FrameOverhead+1] ^= 1
	if _, err := ReadFrame(bufio.NewReader(bytes.NewReader(corrupt))); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("ReadFrame of a corrupted frame: err = %v, want ErrBadFrame", err)
	}
}
