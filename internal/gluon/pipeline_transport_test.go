package gluon

import (
	"bytes"
	"fmt"
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
