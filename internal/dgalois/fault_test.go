package dgalois

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"mrbc/internal/gluon"
)

// ringExchange runs one exchange where every host sends a tagged
// payload to every other host, and returns (a) how many times each
// (from, to) message was unpacked and (b) whether any payload arrived
// mutated. It is the micro-harness the per-fault-kind tests share.
// Unpack runs concurrently across receivers, so the tallies are
// mutex-guarded.
func ringExchange(t *testing.T, c *Cluster) (deliveries map[[2]int]int, mutated bool) {
	t.Helper()
	deliveries = make(map[[2]int]int)
	var mu sync.Mutex
	hosts := c.NumHosts()
	c.Exchange(
		func(from, to int, w *gluon.Writer) {
			w.Raw([]byte(fmt.Sprintf("payload %d->%d", from, to)))
		},
		func(to, from int, data []byte, dec *gluon.Decoder) {
			mu.Lock()
			deliveries[[2]int{from, to}]++
			if string(data) != fmt.Sprintf("payload %d->%d", from, to) {
				mutated = true
			}
			mu.Unlock()
		},
	)
	want := hosts * (hosts - 1)
	if len(deliveries) != want {
		t.Fatalf("%d channels delivered, want %d", len(deliveries), want)
	}
	return deliveries, mutated
}

// assertExactlyOnce checks that every channel was unpacked exactly once
// with intact content.
func assertExactlyOnce(t *testing.T, deliveries map[[2]int]int, mutated bool) {
	t.Helper()
	for ch, n := range deliveries {
		if n != 1 {
			t.Fatalf("channel %v unpacked %d times, want exactly once", ch, n)
		}
	}
	if mutated {
		t.Fatal("a payload arrived mutated")
	}
}

func TestReliableExchangeFaultFree(t *testing.T) {
	// A zero-rate plan must behave like the perfect network: exactly-
	// once intact delivery, identical paper-model volume, no retries,
	// one delivery step per exchange.
	raw := NewCluster(4)
	ringExchange(t, raw)
	framed := NewClusterOpts(4, ClusterOptions{Plan: &FaultPlan{Seed: 1}})
	deliveries, mutated := ringExchange(t, framed)
	assertExactlyOnce(t, deliveries, mutated)

	rs, fs := raw.Stats(), framed.Stats()
	if rs.Bytes != fs.Bytes || rs.Messages != fs.Messages {
		t.Fatalf("paper-model volume differs: raw %d B/%d msgs, framed %d B/%d msgs",
			rs.Bytes, rs.Messages, fs.Bytes, fs.Messages)
	}
	f := fs.Faults
	if f == nil {
		t.Fatal("framed stats carry no FaultStats")
	}
	if f.RetryMessages != 0 || f.RetryBytes != 0 || f.Drops != 0 {
		t.Fatalf("fault-free run recorded retries/faults: %+v", f)
	}
	if f.MaxDeliverySteps != 1 {
		t.Fatalf("fault-free exchange took %d delivery steps, want 1", f.MaxDeliverySteps)
	}
	if f.AckMessages != fs.Messages {
		t.Fatalf("%d acks for %d messages", f.AckMessages, fs.Messages)
	}
	if f.FrameBytes != fs.Messages*16 {
		t.Fatalf("frame overhead %d bytes for %d messages", f.FrameBytes, fs.Messages)
	}
}

func TestReliableExchangeSurvivesEachFaultKind(t *testing.T) {
	plans := map[string]*FaultPlan{
		"drop":     {Seed: 7, Drop: 0.5},
		"dup":      {Seed: 7, Dup: 1.0},
		"delay":    {Seed: 7, Delay: 1.0, MaxDelaySteps: 3},
		"truncate": {Seed: 7, Truncate: 0.5},
		"corrupt":  {Seed: 7, Corrupt: 0.5},
		"reorder":  {Seed: 7, Reorder: 1.0},
		"ackdrop":  {Seed: 7, AckDrop: 0.5},
		"mixed":    {Seed: 7, Drop: 0.2, Dup: 0.2, Delay: 0.2, Truncate: 0.2, Corrupt: 0.2, Reorder: 0.2, AckDrop: 0.2},
	}
	for name, plan := range plans {
		t.Run(name, func(t *testing.T) {
			c := NewClusterOpts(5, ClusterOptions{Plan: plan})
			for i := 0; i < 8; i++ { // several exchanges so seq numbers advance
				deliveries, mutated := ringExchange(t, c)
				assertExactlyOnce(t, deliveries, mutated)
			}
			f := c.Stats().Faults
			switch name {
			case "drop":
				if f.Drops == 0 || f.RetryMessages == 0 {
					t.Fatalf("drop plan injected nothing: %+v", f)
				}
			case "dup":
				if f.Dups == 0 {
					t.Fatalf("dup plan injected nothing: %+v", f)
				}
			case "delay":
				if f.Delays == 0 || f.MaxDeliverySteps < 2 {
					t.Fatalf("delay plan injected nothing: %+v", f)
				}
			case "truncate":
				if f.Truncations == 0 || f.RetryMessages == 0 {
					t.Fatalf("truncate plan injected nothing: %+v", f)
				}
			case "corrupt":
				if f.Corruptions == 0 || f.RetryMessages == 0 {
					t.Fatalf("corrupt plan injected nothing: %+v", f)
				}
			case "reorder":
				if f.Reorders == 0 {
					t.Fatalf("reorder plan injected nothing: %+v", f)
				}
			case "ackdrop":
				if f.AckDrops == 0 || f.RetryMessages == 0 {
					t.Fatalf("ackdrop plan injected nothing: %+v", f)
				}
			}
		})
	}
}

func TestReliableExchangeRecoversFromBoundedStall(t *testing.T) {
	plan := &FaultPlan{Seed: 3, Stalls: []Stall{{Host: 1, Exchange: 0, Steps: 5}}}
	c := NewClusterOpts(3, ClusterOptions{Plan: plan})
	deliveries, mutated := ringExchange(t, c)
	assertExactlyOnce(t, deliveries, mutated)
	f := c.Stats().Faults
	if f.StalledSteps == 0 {
		t.Fatal("stall not recorded")
	}
	if f.PerHost[1].StalledSteps == 0 {
		t.Fatal("per-host stall not attributed to host 1")
	}
	if f.MaxDeliverySteps < 6 {
		t.Fatalf("exchange completed in %d steps despite a 5-step stall", f.MaxDeliverySteps)
	}
}

func TestPermanentStallFailsWithStructuredError(t *testing.T) {
	plan := &FaultPlan{Seed: 3, DeadlineSteps: 10, Stalls: []Stall{{Host: 2, Exchange: 0, Steps: -1}}}
	c := NewClusterOpts(4, ClusterOptions{Plan: plan})
	done := make(chan error, 1)
	go func() {
		done <- Capture(func() { ringExchange(t, c) })
	}()
	select {
	case err := <-done:
		var fe *FaultError
		if !errors.As(err, &fe) {
			t.Fatalf("got %v, want *FaultError", err)
		}
		if fe.Host != 2 {
			t.Fatalf("error implicates host %d, want 2", fe.Host)
		}
		if fe.Pending == 0 {
			t.Fatal("error reports no pending messages")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("permanently stalled host deadlocked the exchange instead of erroring")
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

func TestStatsAddMergesFaultStats(t *testing.T) {
	a := Stats{Rounds: 1, Faults: &FaultStats{Drops: 2, RetryBytes: 100, MaxDeliverySteps: 3, PerHost: []HostFaultStats{{Retries: 1}}}}
	b := Stats{Rounds: 1, Faults: &FaultStats{Drops: 3, RetryBytes: 50, MaxDeliverySteps: 7, PerHost: []HostFaultStats{{Retries: 2}}}}
	a.Add(b)
	if a.Faults.Drops != 5 || a.Faults.RetryBytes != 150 || a.Faults.MaxDeliverySteps != 7 || a.Faults.PerHost[0].Retries != 3 {
		t.Fatalf("merge wrong: %+v", a.Faults)
	}
}
