package gluon

import (
	"bytes"
	"sync"
	"testing"
	"time"
)

// Tests for the TCP backend's pooled receive path: a payload GatherFrom
// returns sits in a buffer the transport reuses, and must stay intact
// until the receiver's next gather call whatever arrives meanwhile.

// lifetimePayload is the message sender puts on exchange e: 0 B to
// 100 KiB of a pattern seeded by (e, sender). One-byte payloads are
// common on purpose: their records fit the connection's control array
// and must be copied out of it.
func lifetimePayload(e, sender int) []byte {
	x := uint32(e*2+sender)*2654435761 + 1
	next := func() uint32 { x = x*1664525 + 1013904223; return x >> 8 }
	var n int
	switch c := next() % 100; {
	case c < 10:
		n = 0
	case c < 25:
		n = 1
	case c < 55:
		n = 2 + int(next()%63)
	case c < 90:
		n = 65 + int(next()%4032)
	default:
		n = 4097 + int(next()%(100<<10-4096))
	}
	buf := make([]byte, n)
	for i := range buf {
		buf[i] = byte(next())
	}
	return buf
}

// arrived reports whether from's record for the exchange is in its box.
func (t *TCPTransport) arrived(exchange, from int) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	box := t.boxes[exchange]
	return box != nil && box.got[from]
}

// TestTCPPayloadLifetimeUnderLoss runs a pair with four exchanges open
// over relays that drop, duplicate, reorder and corrupt record frames.
// Every payload is checked byte for byte at the point the cluster would
// unpack it — after GatherFrom returned it and after the records of the
// later exchanges of the window have arrived and taken their buffers —
// so a buffer recycled while on loan, handed to two records, or returned
// from the connection's control array shows as a mismatch.
func TestTCPPayloadLifetimeUnderLoss(t *testing.T) {
	const window = 4
	exchanges := 2000
	if testing.Short() {
		exchanges = 240
	}
	a, b := relayedPair(t, faultLossy, 1, faultLossy, 2)
	var wg sync.WaitGroup
	for h, tr := range []*TCPTransport{a, b} {
		wg.Add(1)
		go func(h int, tr *TCPTransport) {
			defer wg.Done()
			peer := 1 - h
			for base := 0; base < exchanges; base += window {
				for e := base; e < base+window; e++ {
					if err := tr.Send(e, h, peer, lifetimePayload(e, h)); err != nil {
						t.Errorf("host %d: send ex %d: %v", h, e, err)
						return
					}
				}
				for e := base; e < base+window; e++ {
					got, err := tr.GatherFrom(e, h, peer)
					if err != nil {
						t.Errorf("host %d: gather ex %d: %v", h, e, err)
						return
					}
					for deadline := time.Now().Add(20 * time.Second); !tr.arrived(base+window-1, peer) && e < base+window-1; {
						if time.Now().After(deadline) {
							t.Errorf("host %d: ex %d never arrived", h, base+window-1)
							return
						}
						time.Sleep(100 * time.Microsecond)
					}
					if want := lifetimePayload(e, peer); !bytes.Equal(got, want) {
						t.Errorf("host %d: ex %d: payload of %d bytes differs from the %d sent", h, e, len(got), len(want))
						return
					}
				}
			}
		}(h, tr)
	}
	wg.Wait()
	for h, tr := range []*TCPTransport{a, b} {
		st := tr.Stats(h, 1-h)
		t.Logf("host %d: %d messages, %d bytes, %d retransmissions, %d redials", h, st.Messages, st.Bytes, st.Retries, st.Redials)
		if st.Retries == 0 || st.Redials == 0 {
			t.Errorf("host %d saw %d retransmissions and %d redials: the relay injected no loss", h, st.Retries, st.Redials)
		}
	}
}

// TestTCPPayloadLifetimeGatherOwns pins that what the whole-exchange
// Gather returns belongs to the caller for good: later exchanges,
// gathered per sender out of recycled buffers, do not touch it.
func TestTCPPayloadLifetimeGatherOwns(t *testing.T) {
	const hosts = 3
	c := tcpCluster(t, hosts, TCPOptions{})
	defer c.done()
	sendAll := func(e int) {
		for h := 0; h < hosts; h++ {
			for to := 0; to < hosts; to++ {
				if to != h {
					if err := c.view(h).Send(e, h, to, lifetimePayload(e, h)); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
	sendAll(0)
	kept := make([][][]byte, hosts)
	for h := range kept {
		bufs, err := c.view(h).Gather(0, h)
		if err != nil {
			t.Fatal(err)
		}
		kept[h] = bufs
	}
	for e := 1; e <= 40; e++ {
		sendAll(e)
		for h := 0; h < hosts; h++ {
			for from := 0; from < hosts; from++ {
				got, err := c.view(h).GatherFrom(e, h, from)
				if err != nil {
					t.Fatal(err)
				}
				if from != h && !bytes.Equal(got, lifetimePayload(e, from)) {
					t.Fatalf("host %d: ex %d from %d: wrong payload", h, e, from)
				}
			}
		}
	}
	for h, bufs := range kept {
		for from, got := range bufs {
			if from != h && !bytes.Equal(got, lifetimePayload(0, from)) {
				t.Fatalf("host %d: the payload Gather returned from %d changed under later exchanges", h, from)
			}
		}
	}
}

// TestTCPWarmExchangeAllocatesNothing pins the steady state of both
// sides together: a warm four-host exchange of 2 KiB payloads — twelve
// records sent from acked frame buffers, read into free-list buffers and
// gathered out of recycled boxes — allocates nothing. So does one whose
// grid diagonals are silent: eight records, and four senders declared
// rather than received. (AllocsPerRun counts the reader goroutines'
// allocations too.)
func TestTCPWarmExchangeAllocatesNothing(t *testing.T) {
	const hosts = 4
	for _, silent := range []bool{false, true} {
		name := "all links"
		if silent {
			name = "silent diagonals"
		}
		t.Run(name, func(t *testing.T) {
			c := tcpCluster(t, hosts, TCPOptions{})
			defer c.done()
			quiet := func(a, b int) bool { return silent && silentLink(a, b) }
			payload := bytes.Repeat([]byte{0xa5}, 2<<10)
			e := 0
			exchange := func() {
				for h := 0; h < hosts; h++ {
					tr := c.view(h)
					if err := tr.Propose(e, h, int64(h)); err != nil {
						t.Fatal(err)
					}
					for to := 0; to < hosts; to++ {
						if to != h && !quiet(h, to) {
							if err := tr.Send(e, h, to, payload); err != nil {
								t.Fatal(err)
							}
						}
					}
				}
				for h := 0; h < hosts; h++ {
					tr := c.view(h).(*TCPTransport)
					want := int64(hosts * (hosts - 1) / 2)
					for from := 0; from < hosts; from++ {
						if quiet(from, h) {
							want -= int64(from)
							if err := tr.Silent(e, h, from); err != nil {
								t.Fatal(err)
							}
						}
						got, err := tr.GatherFrom(e, h, from)
						n := len(payload)
						if from == h || quiet(from, h) {
							n = 0
						}
						if err != nil || len(got) != n {
							t.Fatalf("host %d: ex %d from %d: %d bytes, %v", h, e, from, len(got), err)
						}
					}
					if sum, err := tr.Sum(e, h); err != nil || sum != want {
						t.Fatalf("host %d: ex %d: sum %d, %v; want %d", h, e, sum, err, want)
					}
				}
				e++
			}
			for e < 32 {
				exchange()
			}
			if allocs := testing.AllocsPerRun(200, exchange); allocs != 0 {
				t.Fatalf("a warm exchange allocates %.0f objects, want 0", allocs)
			}
		})
	}
}
