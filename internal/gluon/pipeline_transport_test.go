package gluon

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// Conformance for the pipelined exchange path: a windowed MemTransport
// holding several exchanges open at once, and the TCP backend's
// per-sender gather.

func TestMemTransportWindowConcurrentExchanges(t *testing.T) {
	const hosts, window = 3, 2
	m := NewMemTransportWindow(hosts, window)
	defer m.Close()
	if got := m.Window(); got != window {
		t.Fatalf("Window() = %d, want %d", got, window)
	}
	// Rounds of `window` concurrently-open exchanges: all sends of both
	// exchanges land before any gather, so each round needs two live
	// slots, and finishing a round must recycle them for the next.
	for round := 0; round < 3; round++ {
		base := round * window
		for e := base; e < base+window; e++ {
			for from := 0; from < hosts; from++ {
				for to := 0; to < hosts; to++ {
					if from == to {
						continue
					}
					if err := m.Send(e, from, to, confPayload(e, from, to)); err != nil {
						t.Fatalf("send e=%d %d->%d: %v", e, from, to, err)
					}
				}
			}
		}
		// Gather the exchanges newest-first: slot lookup is by exchange
		// id, not arrival order.
		for e := base + window - 1; e >= base; e-- {
			for to := 0; to < hosts; to++ {
				bufs, err := m.Gather(e, to)
				if err != nil {
					t.Fatalf("gather e=%d to=%d: %v", e, to, err)
				}
				for from, got := range bufs {
					if from == to {
						continue
					}
					if want := confPayload(e, from, to); !bytes.Equal(got, want) {
						t.Fatalf("e=%d %d->%d: got %x want %x", e, from, to, got, want)
					}
				}
			}
		}
	}
}

func TestMemTransportWindowOverflowPanics(t *testing.T) {
	m := NewMemTransportWindow(2, 1)
	defer m.Close()
	if err := m.Send(0, 0, 1, []byte{1}); err != nil {
		t.Fatal(err)
	}
	defer func() {
		v := recover()
		if v == nil {
			t.Fatal("opening a second exchange in a window of 1 did not panic")
		}
		if msg := fmt.Sprint(v); !strings.Contains(msg, "exceeds the in-process window") {
			t.Fatalf("unexpected panic message: %s", msg)
		}
	}()
	_ = m.Send(1, 0, 1, []byte{2})
}

// TestMemTransportReclaim: an exchange that sent but will never be
// gathered gives its slot back through Reclaim, so a fresh exchange fits
// a window of 1; reclaiming an exchange that is not open is a no-op.
func TestMemTransportReclaim(t *testing.T) {
	m := NewMemTransportWindow(2, 1)
	defer m.Close()
	if err := m.Send(4, 0, 1, []byte{7, 8, 9}); err != nil {
		t.Fatal(err)
	}
	m.Reclaim(4)
	if err := m.Send(5, 1, 0, []byte{1}); err != nil {
		t.Fatal(err)
	}
	if got, _ := m.GatherFrom(5, 0, 1); !bytes.Equal(got, []byte{1}) {
		t.Fatalf("GatherFrom returned %x from the reused slot, want 01", got)
	}
	m.Reclaim(5)
	m.Reclaim(6) // unknown exchange: no-op
}

// TestMemTransportOpenClaimsTheSlot: an exchange opened ahead of its
// Sends owns its slot from then on (opening twice is opening once), so a
// second exchange overflows a window of 1 before either sent anything,
// and the Sends that follow land in the opened slot.
func TestMemTransportOpenClaimsTheSlot(t *testing.T) {
	m := NewMemTransportWindow(2, 1)
	defer m.Close()
	m.Open(3)
	m.Open(3)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("opening a second exchange in a window of 1 did not panic")
			}
		}()
		m.Open(4)
	}()
	if err := m.Send(3, 0, 1, []byte{5}); err != nil {
		t.Fatal(err)
	}
	if got, _ := m.GatherFrom(3, 1, 0); !bytes.Equal(got, []byte{5}) {
		t.Fatalf("GatherFrom returned %x after Open and Send", got)
	}
	if _, err := m.Gather(3, 0); err != nil {
		t.Fatal(err)
	}
	m.Open(4) // every receiver gathered: the slot is free again
}

// TestTCPGatherFromArbitraryOrder exercises the per-sender gather of
// the TCP backend the way the pipelined unpack path uses it: one
// GatherFrom per remote sender, in whatever order the receiver likes,
// plus the self-gather no-op.
func TestTCPGatherFromArbitraryOrder(t *testing.T) {
	const hosts, exchanges = 3, 4
	c := tcpCluster(t, hosts, TCPOptions{})
	defer c.done()
	bar := newBarrier(hosts)
	errCh := make(chan error, hosts)
	var wg sync.WaitGroup
	for h := 0; h < hosts; h++ {
		wg.Add(1)
		go func(h int) {
			defer wg.Done()
			tr := c.view(h)
			for e := 0; e < exchanges; e++ {
				for to := 0; to < hosts; to++ {
					if to == h {
						continue
					}
					if err := tr.Send(e, h, to, confPayload(e, h, to)); err != nil {
						errCh <- fmt.Errorf("host %d send e=%d: %w", h, e, err)
						return
					}
				}
				// Descending sender order (the reverse of Gather's), with
				// the self slot in the middle of the scan.
				for from := hosts - 1; from >= 0; from-- {
					buf, err := tr.GatherFrom(e, h, from)
					if err != nil {
						errCh <- fmt.Errorf("host %d GatherFrom e=%d from=%d: %w", h, e, from, err)
						return
					}
					if from == h {
						if buf != nil {
							errCh <- fmt.Errorf("host %d: self GatherFrom returned %x", h, buf)
							return
						}
						continue
					}
					if want := confPayload(e, from, h); !bytes.Equal(buf, want) {
						errCh <- fmt.Errorf("host %d e=%d from=%d: got %x want %x", h, e, from, buf, want)
						return
					}
				}
				bar.wait()
			}
		}(h)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}
