package dgalois

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"mrbc/internal/gluon"
)

// spmdStub is a remote transport owning one host: it records the
// destination and exchange identifier of every Send and answers GatherFrom with a one-byte payload naming the
// sender, and sums an exchange as if every peer proposed 1. Everything
// else a Cluster may call on a transport is left to the nil embedded
// interface — the SPMD phases must not need it.
type spmdStub struct {
	gluon.Transport
	hosts, self int
	sent, ids   []int
	mine        int64
}

func (s *spmdStub) Hosts() int       { return s.hosts }
func (s *spmdStub) Local(h int) bool { return h == s.self }

func (s *spmdStub) Send(exchange, from, to int, buf []byte) error {
	s.sent = append(s.sent, to)
	s.ids = append(s.ids, exchange)
	return nil
}

func (s *spmdStub) GatherFrom(exchange, to, from int) ([]byte, error) {
	return []byte{byte(from)}, nil
}

// Every peer proposes 1 to every exchange.
func (s *spmdStub) Propose(exchange, host int, local int64) error { s.mine = local; return nil }
func (s *spmdStub) Sum(exchange, host int) (int64, error)         { return s.mine + int64(s.hosts-1), nil }

// TestSPMDPhasesRunInline pins the shape of a one-host-per-process
// cluster: it owns no pool goroutines, Compute runs the local host on
// the caller, the pack phase visits the local host's hosts−1
// destinations in order and the unpack phase its hosts−1 senders in
// order — all on the caller, which the plain (unsynchronized) appends
// below let the race detector confirm.
func TestSPMDPhasesRunInline(t *testing.T) {
	const hosts, self = 4, 1
	stub := &spmdStub{hosts: hosts, self: self}
	before := runtime.NumGoroutine()
	c := NewClusterOpts(hosts, ClusterOptions{Transport: stub})
	defer c.Close()
	// (Pool workers of earlier tests' clusters may still be exiting, so
	// the count can only be trusted not to grow.)
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("an SPMD cluster started %d goroutines, want none", after-before)
	}

	var computed []int
	c.Compute(func(h int) {
		computed = append(computed, h)
		if n := runtime.NumGoroutine(); n > before {
			t.Errorf("Compute ran with %d goroutines live, %d before: not inline", n, before)
		}
	})
	if !reflect.DeepEqual(computed, []int{self}) {
		t.Fatalf("Compute ran hosts %v, want [%d]", computed, self)
	}

	var packed, unpacked []int
	c.Exchange(func(from, to int, w *gluon.Writer) {
		if from != self {
			t.Errorf("packed for remote sender %d", from)
		}
		packed = append(packed, to)
		w.U32(uint32(to))
	}, func(to, from int, data []byte, dec *gluon.Decoder) {
		if to != self || len(data) != 1 || int(data[0]) != from {
			t.Errorf("unpack(to %d, from %d, %v)", to, from, data)
		}
		unpacked = append(unpacked, from)
	})
	want := []int{0, 2, 3}
	if !reflect.DeepEqual(packed, want) || !reflect.DeepEqual(stub.sent, want) || !reflect.DeepEqual(unpacked, want) {
		t.Fatalf("packed %v, sent %v, unpacked %v; want %v each", packed, stub.sent, unpacked, want)
	}
	// An SPMD process cannot take its own zero for the cluster's: the
	// exchange runs and returns every host's sum.
	ran := false
	vote := Sync{Pack: func(from, to int, w *gluon.Writer) { ran = true }, Unpack: func(to, from int, data []byte, dec *gluon.Decoder) {}, Vote: true}
	if got := c.Sync(vote, 0); got != hosts-1 || !ran {
		t.Fatalf("Sync(vote, 0) = %d (packed: %v), want %d from an exchange that ran", got, ran, hosts-1)
	}
	if p := c.BeginSync(vote, 5); p == nil {
		t.Fatal("BeginSync returned the nil ticket in SPMD mode")
	} else if p.Complete(); p.Sum() != 5+hosts-1 {
		t.Fatalf("detached sum = %d, want %d", p.Sum(), 5+hosts-1)
	}
	if st := c.Stats(); st.Messages != hosts-1 || st.Bytes != 4*(hosts-1) {
		t.Fatalf("stats = %d messages / %d bytes, want %d / %d", st.Messages, st.Bytes, hosts-1, 4*(hosts-1))
	}
}

// TestPipelinedExchangeIDsAreOneCounter pins the identifiers an SPMD
// process puts on the wire while batches interleave their exchanges the
// way the pipelined runner's turnstile does: each batch takes the turn,
// completes its open exchange and begins its next. Every process issues
// that same sequence, so numbering the exchanges 0,1,2,… in the order
// they begin names the same exchange everywhere, whichever batch began it.
func TestPipelinedExchangeIDsAreOneCounter(t *testing.T) {
	const hosts, self, batches, turns = 4, 2, 3, 4
	stub := &spmdStub{hosts: hosts, self: self}
	c := NewClusterOpts(hosts, ClusterOptions{Transport: stub})
	defer c.Close()
	step := Sync{Pack: func(from, to int, w *gluon.Writer) { w.Byte(byte(from)) }, Unpack: func(to, from int, data []byte, dec *gluon.Decoder) {}}
	open := make([]*PendingExchange, batches)
	for turn := 0; turn < turns; turn++ {
		for b := range open {
			c.SetBatch(b)
			open[b].Complete()
			open[b] = c.BeginSync(step, 0)
		}
	}
	for _, p := range open {
		p.Complete()
	}
	c.SetBatch(-1)
	var ids []int
	for i, id := range stub.ids {
		if i%(hosts-1) == 0 {
			ids = append(ids, id)
		} else if id != ids[len(ids)-1] {
			t.Fatalf("one exchange's sends carried identifiers %d and %d", ids[len(ids)-1], id)
		}
	}
	if len(ids) != batches*turns {
		t.Fatalf("%d exchanges sent, want %d", len(ids), batches*turns)
	}
	for n, id := range ids {
		if id != n {
			t.Fatalf("exchange %d went out as identifier %d; identifiers %v, want 0..%d", n, id, ids, batches*turns-1)
		}
	}
}

// ownsAll is a transport that claims every host as local, as an
// in-process backend does.
type ownsAll struct {
	gluon.Transport
	hosts int
}

func (o ownsAll) Hosts() int       { return o.hosts }
func (o ownsAll) Local(h int) bool { return true }

// TestTransportMustOwnOneHost: a transport always means SPMD mode, so one
// that owns every host is refused at construction — an in-process
// cluster takes no transport.
func TestTransportMustOwnOneHost(t *testing.T) {
	defer func() {
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, "must own exactly one local host, owns 4") {
			t.Fatalf("NewClusterOpts over a transport owning every host: panic %q", msg)
		}
	}()
	NewClusterOpts(4, ClusterOptions{Transport: ownsAll{hosts: 4}})
}

// TestSPMDFirstExchangeAllocatesLinearly pins the size of an SPMD
// ticket: it holds the local host's row of writers and its row and
// column of link tallies, not the host matrix, so the first exchange of
// a one-host cluster allocates in proportion to the cluster size — with
// H such clusters in one process (an in-process mesh), H², not H³.
func TestSPMDFirstExchangeAllocatesLinearly(t *testing.T) {
	first := func(hosts int) uint64 {
		stub := &spmdStub{hosts: hosts, self: 1, sent: make([]int, 0, hosts), ids: make([]int, 0, hosts)}
		c := NewClusterOpts(hosts, ClusterOptions{Transport: stub})
		defer c.Close()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c.Exchange(func(from, to int, w *gluon.Writer) { w.U32(uint32(to)) },
			func(to, from int, data []byte, dec *gluon.Decoder) {})
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	small, large := first(32), first(256)
	// Eight times the hosts: about eight times the bytes for a row, 64
	// times for a matrix.
	if ratio := float64(large) / float64(small); ratio > 12 {
		t.Fatalf("first exchange allocated %d B at 32 hosts and %d B at 256 (%.1f×): not linear in the hosts", small, large, ratio)
	}
}
