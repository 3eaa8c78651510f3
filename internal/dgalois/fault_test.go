package dgalois

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"mrbc/internal/gluon"
	"mrbc/internal/obs"
)

// TestFaultErrorText pins how a failure reads: in idle transport steps,
// naming the exchange only when the failure belongs to one, and saying
// "lost" for a host known dead.
func TestFaultErrorText(t *testing.T) {
	for _, c := range []struct {
		err  FaultError
		want string
	}{
		{FaultError{Host: 1, Exchange: 17, Step: 40, Pending: 3, Reason: "peer silent"},
			"dgalois: transport stalled on host 1 in exchange 17 after 40 idle steps (3 messages pending): peer silent"},
		{FaultError{Host: 1, Exchange: -1, Step: 1501, Pending: 0, Reason: "connection refused"},
			"dgalois: transport stalled on host 1 after 1501 idle steps (0 messages pending): connection refused"},
		{FaultError{Host: 3, Exchange: 17, Step: 40, Pending: 5, Killed: true, Reason: "host 3 stalled"},
			"dgalois: transport lost host 3 in exchange 17 after 40 idle steps (5 messages pending): host 3 stalled"},
		{FaultError{Host: -1, Exchange: -1, Step: 0, Pending: 0, Killed: true, Reason: "closed"},
			"dgalois: transport lost unknown host after 0 idle steps (0 messages pending): closed"},
	} {
		if got := c.err.Error(); got != c.want {
			t.Errorf("%+v:\n got %q\nwant %q", c.err, got, c.want)
		}
	}
}

func TestCaptureIsTransparentForOtherPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-transport panic was swallowed")
		}
	}()
	_ = Capture(func() { panic("unrelated") })
}

func TestRoundImbalanceCountsParticipatingHostsOnly(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }

	// All hosts equally busy: perfectly balanced.
	if imb, ok := roundImbalance([]time.Duration{ms(2), ms(2), ms(2), ms(2)}); !ok || imb != 1.0 {
		t.Fatalf("equal durations: imb=%v ok=%v, want 1.0 true", imb, ok)
	}
	// Two busy hosts, two idle: the idle hosts must not count toward
	// the mean. The seed behavior divided by all hosts, reporting
	// max/mean = 2/1 = 2.0 for this round — a silently inflated
	// imbalance whenever part of the cluster legitimately has no work.
	if imb, ok := roundImbalance([]time.Duration{ms(2), ms(2), 0, 0}); !ok || imb != 1.0 {
		t.Fatalf("half-idle round: imb=%v ok=%v, want 1.0 true (not 2.0)", imb, ok)
	}
	// Genuine imbalance among participants is still reported.
	if imb, ok := roundImbalance([]time.Duration{ms(3), ms(1), 0}); !ok || imb != 1.5 {
		t.Fatalf("imbalanced participants: imb=%v ok=%v, want 1.5 true", imb, ok)
	}
	// No host computed: no sample.
	if _, ok := roundImbalance([]time.Duration{0, 0}); ok {
		t.Fatal("all-idle round produced a sample")
	}
}

// stalledPeer is spmdStub with one peer that never delivers: gathering
// from it fails the way TCPTransport's does once its deadline expires.
type stalledPeer struct {
	spmdStub
	stalled int
}

func (s *stalledPeer) GatherFrom(exchange, to, from int) ([]byte, error) {
	if from == s.stalled {
		return nil, &gluon.TransportError{Host: from, Exchange: exchange, Pending: 1, Steps: 10, Reason: "no progress"}
	}
	return s.spmdStub.GatherFrom(exchange, to, from)
}

// TestPermanentStallFailsWithStructuredError: a peer the transport
// gives up on aborts the exchange with a *FaultError naming it, through
// Capture, instead of deadlocking the barrier, and the cluster stops
// counting the peer as alive.
func TestPermanentStallFailsWithStructuredError(t *testing.T) {
	const hosts, self, stalled = 4, 0, 2
	reg := obs.NewRegistry()
	tr := &stalledPeer{spmdStub: spmdStub{hosts: hosts, self: self}, stalled: stalled}
	c := NewClusterOpts(hosts, ClusterOptions{Transport: tr, Metrics: reg})
	defer c.Close()
	err := Capture(func() {
		c.Exchange(func(from, to int, w *gluon.Writer) { w.Byte(1) },
			func(to, from int, data []byte, dec *gluon.Decoder) {})
	})
	var fe *FaultError
	if !errors.As(err, &fe) {
		t.Fatalf("got %v, want *FaultError", err)
	}
	if fe.Host != stalled || fe.Exchange != 0 || fe.Pending != 1 || fe.Step != 10 {
		t.Fatalf("error %+v, want host %d, exchange 0, 1 pending after 10 steps", *fe, stalled)
	}
	alive := reg.Snapshot().GaugeVecs["dgalois_host_alive"].Values
	if want := []int64{1, 1, 0, 1}; !reflect.DeepEqual(alive, want) {
		t.Fatalf("dgalois_host_alive = %v, want %v", alive, want)
	}
}
