package dgalois

import (
	"errors"
	"fmt"
	"time"

	"mrbc/internal/gluon"
)

// Fault injection for the host-to-host exchange path. A FaultPlan is a
// deterministic, seed-driven schedule of link faults: every decision
// (drop this transmission? corrupt that copy? how long is the delay?)
// is a pure function of (seed, channel, sequence number, attempt), so a
// run with a given plan is exactly reproducible regardless of goroutine
// scheduling, and a failing chaos seed can be replayed in isolation.
//
// Faults operate on framed transmissions at the granularity of
// *delivery steps* — the micro-rounds of the reliable exchange protocol
// (see reliable.go) within one BSP exchange. The protocol's timeouts,
// bounded redelivery, and the recoverability boundary are all expressed
// in delivery steps.

// FaultPlan configures the injected fault mix. The zero value (or a nil
// plan pointer) injects nothing; a non-nil plan additionally routes the
// exchange through the framed ack/retry transport even when all rates
// are zero. Either way the paper-model Bytes/Messages equal the
// fault-free run's; retries and framing land in FaultStats only
// (TestFaultVolumeAccounting in internal/chaostest).
type FaultPlan struct {
	// Seed drives every pseudo-random decision.
	Seed uint64

	// Per-transmission fault probabilities in [0, 1]. Drop loses the
	// transmission; Dup delivers it twice; Delay holds it for 1..
	// MaxDelaySteps delivery steps; Truncate cuts it short; Corrupt
	// flips one bit; Reorder reverses the arrival order at a receiver
	// within a delivery step; AckDrop loses the acknowledgement (the
	// sender retransmits and the receiver discards the duplicate).
	Drop, Dup, Delay, Truncate, Corrupt, Reorder, AckDrop float64

	// MaxDelaySteps bounds the per-transmission delay. Default 3.
	MaxDelaySteps int

	// DeadlineSteps is the barrier timeout: an exchange that cannot
	// deliver every message within this many delivery steps fails the
	// run with a *FaultError instead of deadlocking. Default 64.
	DeadlineSteps int

	// Stalls silences hosts: a stalled host neither transmits, receives,
	// nor acknowledges. Stalls shorter than the deadline are recovered
	// by redelivery; a permanent stall trips the deadline.
	Stalls []Stall

	// Kills silence hosts permanently from a point in the exchange
	// schedule onward, modeling process death. Unlike a Stall, a kill is
	// never recovered by redelivery: the next exchange involving the dead
	// host trips the deadline with a Killed FaultError, and recovery is
	// the elastic layer's job (checkpoint rollback + re-execution).
	Kills []Kill
}

// Stall silences Host for the first Steps delivery steps of the BSP
// exchange with index Exchange (0-based, counted across the cluster's
// lifetime). Steps < 0 stalls the host for the whole exchange, which is
// unrecoverable whenever any message involves it.
type Stall struct {
	Host     int
	Exchange int
	Steps    int
}

// Kill declares host dead from delivery step Step of BSP exchange
// Exchange (0-based, counted across the cluster's lifetime) onward: the
// host neither transmits, receives, nor acknowledges in any later step
// or exchange. Step <= 1 kills the host before it transmits anything in
// that exchange (mid-pack); a larger Step kills it mid-exchange, after
// some frames are already on the wire.
type Kill struct {
	Host     int
	Exchange int
	Step     int
}

// killed reports whether host is dead at the given delivery step of the
// given exchange under the plan's kill schedule.
func (p *FaultPlan) killed(host, exchange, step int) bool {
	for _, k := range p.Kills {
		if k.Host == host && (exchange > k.Exchange || (exchange == k.Exchange && step >= k.Step)) {
			return true
		}
	}
	return false
}

// KillSchedule derives n seeded host-kill events for a cluster of the
// given size, using the same splitmix64 hashing as the link-fault
// decisions so a schedule replays exactly from its seed. Exchange
// positions stay small (< 24) so every kill reliably lands inside even
// short runs; steps alternate between mid-pack (before the victim
// transmits) and mid-exchange.
func KillSchedule(seed uint64, hosts, n int) []Kill {
	if hosts <= 0 || n <= 0 {
		return nil
	}
	kills := make([]Kill, 0, n)
	for i := 0; i < n; i++ {
		draw := func(k uint64) uint64 { return mix64(seed ^ mix64(uint64(i)<<8^k)) }
		kills = append(kills, Kill{
			Host:     int(draw(1) % uint64(hosts)),
			Exchange: int(draw(2) % 24),
			Step:     int(draw(3) % 6), // 0..5: ~1/3 mid-pack, rest mid-exchange
		})
	}
	return kills
}

func (p *FaultPlan) maxDelay() int {
	if p.MaxDelaySteps <= 0 {
		return 3
	}
	return p.MaxDelaySteps
}

func (p *FaultPlan) deadline() int {
	if p.DeadlineSteps <= 0 {
		return 64
	}
	return p.DeadlineSteps
}

// stalled reports whether host is silenced at the given delivery step
// of the given exchange, by a bounded stall or by a kill.
func (p *FaultPlan) stalled(host, exchange, step int) bool {
	for _, s := range p.Stalls {
		if s.Host == host && s.Exchange == exchange && (s.Steps < 0 || step <= s.Steps) {
			return true
		}
	}
	return p.killed(host, exchange, step)
}

// Decision kinds, mixed into the hash so the same transmission rolls
// independent dice for each fault type.
const (
	kindDrop uint64 = iota + 1
	kindDup
	kindDelay
	kindDelayLen
	kindTruncate
	kindTruncLen
	kindCorrupt
	kindCorruptBit
	kindReorder
	kindAckDrop
)

// mix64 is a splitmix64 finalizer round.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// roll returns a deterministic uniform value in [0, 1) for one decision.
func (p *FaultPlan) roll(kind uint64, from, to int, seq uint32, nonce uint64) float64 {
	h := mix64(p.Seed ^ mix64(kind))
	h = mix64(h ^ uint64(from)<<32 ^ uint64(uint32(to)))
	h = mix64(h ^ uint64(seq)<<16 ^ nonce)
	return float64(h>>11) / (1 << 53)
}

// chance rolls one decision against a probability.
func (p *FaultPlan) chance(rate float64, kind uint64, from, to int, seq uint32, nonce uint64) bool {
	return rate > 0 && p.roll(kind, from, to, seq, nonce) < rate
}

// intn returns a deterministic value in [0, n).
func (p *FaultPlan) intn(n int, kind uint64, from, to int, seq uint32, nonce uint64) int {
	if n <= 1 {
		return 0
	}
	return int(p.roll(kind, from, to, seq, nonce) * float64(n))
}

// RandomPlan derives a recoverable fault plan from a seed: every rate
// is drawn uniformly in [0, maxRate], delays stay short, and at most
// two bounded stalls (well under the deadline) are scheduled on random
// hosts. Used by the chaos sweep and the fault benchmark.
func RandomPlan(seed uint64, maxRate float64, hosts int) *FaultPlan {
	draw := func(k uint64) float64 {
		return float64(mix64(seed^mix64(k))>>11) / (1 << 53)
	}
	p := &FaultPlan{
		Seed:          seed,
		Drop:          maxRate * draw(1),
		Dup:           maxRate * draw(2),
		Delay:         maxRate * draw(3),
		Truncate:      maxRate * draw(4),
		Corrupt:       maxRate * draw(5),
		Reorder:       maxRate * draw(6),
		AckDrop:       maxRate * draw(7),
		MaxDelaySteps: 1 + int(draw(8)*3),
		DeadlineSteps: 64,
	}
	if hosts > 0 {
		for i := 0; i < int(draw(9)*3); i++ { // 0, 1, or 2 stalls
			p.Stalls = append(p.Stalls, Stall{
				Host:     int(draw(uint64(10+3*i)) * float64(hosts)),
				Exchange: int(draw(uint64(11+3*i)) * 48),
				Steps:    1 + int(draw(uint64(12+3*i))*float64(p.DeadlineSteps/4)),
			})
		}
	}
	return p
}

// FaultError is the structured failure the transport raises when an
// exchange cannot complete within its deadline (e.g. a host stalled
// past it). It aborts the run cleanly instead of deadlocking the BSP
// barrier; consumers surface it through their *Checked run variants.
type FaultError struct {
	Host     int  // implicated host, -1 if none identified
	Exchange int  // BSP exchange index that timed out
	Step     int  // delivery step at which the deadline expired
	Pending  int  // messages still undelivered or unacknowledged
	Killed   bool // the implicated host is dead (kill event), not slow
	Reason   string
}

func (e *FaultError) Error() string {
	host := "unknown host"
	if e.Host >= 0 {
		host = fmt.Sprintf("host %d", e.Host)
	}
	if e.Killed {
		return fmt.Sprintf("dgalois: exchange %d lost %s at delivery step %d (%d messages pending): %s",
			e.Exchange, host, e.Step, e.Pending, e.Reason)
	}
	return fmt.Sprintf("dgalois: exchange %d exceeded its deadline at delivery step %d (%s, %d messages pending): %s",
		e.Exchange, e.Step, host, e.Pending, e.Reason)
}

// faultErrorFrom converts a transport-layer failure (a stalled or
// severed peer on a remote backend) into the substrate's structured
// FaultError, so engine callers see one error type regardless of
// whether the network was simulated or real.
func faultErrorFrom(err error) *FaultError {
	var fe *FaultError
	if errors.As(err, &fe) {
		return fe
	}
	var te *gluon.TransportError
	if errors.As(err, &te) {
		return &FaultError{Host: te.Host, Exchange: te.Exchange, Step: te.Steps, Pending: te.Pending, Reason: te.Reason}
	}
	return &FaultError{Host: -1, Exchange: -1, Reason: err.Error()}
}

// abortPanic carries a FaultError up the BSP driver's stack; Capture
// converts it back into an error at the run boundary.
type abortPanic struct{ err *FaultError }

// Abort unwinds the calling BSP driver with the given structured error,
// exactly as a failed exchange would; the nearest Capture converts it
// back into the error. The pipelined batch runner uses it to take every
// batch goroutine down the same abort path once one of them failed.
func Abort(err *FaultError) {
	panic(abortPanic{err: err})
}

// Capture runs fn and converts a transport abort into its FaultError.
// Any other panic propagates unchanged.
func Capture(fn func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if a, ok := r.(abortPanic); ok {
				err = a.err
				return
			}
			panic(r)
		}
	}()
	fn()
	return nil
}

// HostFaultStats aggregates transport activity attributed to one host.
type HostFaultStats struct {
	SentMessages int64 // logical messages originated
	Retries      int64 // retransmissions performed
	RetryBytes   int64 // frame bytes retransmitted
	FaultsOut    int64 // injected faults on its outgoing transmissions
	StalledSteps int64 // delivery steps spent stalled
}

// FaultStats aggregates the reliable transport's activity. Retry and
// framing bytes are accounted here, strictly apart from Stats.Bytes,
// so the paper-model communication volume stays comparable with and
// without the fault layer.
type FaultStats struct {
	// Injected fault counts by kind.
	Drops, Dups, Delays, Truncations, Corruptions, Reorders, AckDrops int64
	StalledSteps                                                      int64

	RetryMessages int64 // retransmitted frames
	RetryBytes    int64 // bytes of retransmitted frames (incl. framing)
	FrameBytes    int64 // framing overhead of first transmissions
	AckMessages   int64 // acknowledgements delivered
	AckBytes      int64

	DeliverySteps    int64 // total delivery steps across exchanges
	MaxDeliverySteps int   // slowest exchange, in delivery steps

	// Elastic-recovery accounting: paper-model volume discarded and
	// re-executed after host kills lives here, never in Stats.Bytes/
	// Messages, so the surviving run's model counters match a kill-free
	// run exactly.
	Kills            int64 // host-kill events that fired
	Restores         int64 // attempts resumed from a boundary snapshot
	RecoveryBytes    int64 // paper-model bytes of discarded segments
	RecoveryMessages int64 // paper-model messages of discarded segments

	PerHost []HostFaultStats
}

// add accumulates another snapshot (for Stats.Add).
func (f *FaultStats) add(o *FaultStats) {
	f.Drops += o.Drops
	f.Dups += o.Dups
	f.Delays += o.Delays
	f.Truncations += o.Truncations
	f.Corruptions += o.Corruptions
	f.Reorders += o.Reorders
	f.AckDrops += o.AckDrops
	f.StalledSteps += o.StalledSteps
	f.RetryMessages += o.RetryMessages
	f.RetryBytes += o.RetryBytes
	f.FrameBytes += o.FrameBytes
	f.AckMessages += o.AckMessages
	f.AckBytes += o.AckBytes
	f.DeliverySteps += o.DeliverySteps
	f.Kills += o.Kills
	f.Restores += o.Restores
	f.RecoveryBytes += o.RecoveryBytes
	f.RecoveryMessages += o.RecoveryMessages
	if o.MaxDeliverySteps > f.MaxDeliverySteps {
		f.MaxDeliverySteps = o.MaxDeliverySteps
	}
	for h := range o.PerHost {
		if h >= len(f.PerHost) {
			f.PerHost = append(f.PerHost, HostFaultStats{})
		}
		f.PerHost[h].SentMessages += o.PerHost[h].SentMessages
		f.PerHost[h].Retries += o.PerHost[h].Retries
		f.PerHost[h].RetryBytes += o.PerHost[h].RetryBytes
		f.PerHost[h].FaultsOut += o.PerHost[h].FaultsOut
		f.PerHost[h].StalledSteps += o.PerHost[h].StalledSteps
	}
}

// clone returns a deep copy for Stats snapshots.
func (f *FaultStats) clone() *FaultStats {
	c := *f
	c.PerHost = append([]HostFaultStats(nil), f.PerHost...)
	return &c
}

// roundImbalance computes one round's load-imbalance sample: the
// max/mean ratio of per-host compute time over the hosts that actually
// computed this round (d > 0). Idle hosts are excluded from the mean —
// dividing by all hosts would silently inflate the ratio on rounds
// where part of the cluster legitimately has no work (e.g. a batch
// whose frontier touches few partitions), which is not what Table 1's
// load-imbalance estimate measures. Returns ok=false when no host
// computed.
func roundImbalance(durations []time.Duration) (imb float64, ok bool) {
	var max, sum time.Duration
	participants := 0
	for _, d := range durations {
		if d <= 0 {
			continue
		}
		participants++
		sum += d
		if d > max {
			max = d
		}
	}
	if participants == 0 {
		return 0, false
	}
	mean := float64(sum) / float64(participants)
	return float64(max) / mean, true
}
