package obs

import "sort"

// This file holds the trace-analysis accumulators behind cmd/bctrace:
// per-host load imbalance, per-round latency and critical-path blame,
// and canonical-trace comparison. The accumulators consume events one
// at a time (feed them from an EventReader) so detail traces far
// larger than memory stream through; their working state is bounded
// by rounds × hosts, not by event count.

// HostLoad is one host's total compute time over a trace.
type HostLoad struct {
	Host      int32
	ComputeNs int64
}

// ImbalanceReport aggregates compute-phase load balance.
type ImbalanceReport struct {
	// PerHost lists total compute time per host, ascending host order.
	PerHost []HostLoad
	// Mean is the mean over compute phases of the max/mean ratio across
	// participating hosts — computed with the identical arithmetic as
	// dgalois.Stats.LoadImbalance, so the two agree exactly on a
	// complete phase trace. 1.0 when no phase had activity.
	Mean float64
	// Phases counts the compute phases contributing a sample.
	Phases int
	// MaxRatio is the worst single-phase ratio (1.0 when none).
	MaxRatio float64
}

// imbGroup collects one compute dispatch's per-host durations, keyed
// by the coordinator-serial Seq so concurrently-emitted host slices
// reassemble deterministically.
type imbGroup struct {
	sum          int64
	max          int64
	participants int
}

// ImbalanceAccum folds compute-phase events into an ImbalanceReport.
type ImbalanceAccum struct {
	hosts  map[int32]int64
	groups map[int64]*imbGroup
}

// Observe folds one event (non-compute events are ignored).
func (a *ImbalanceAccum) Observe(e Event) {
	if e.Kind != KindPhase || e.Phase != PhaseCompute {
		return
	}
	if a.hosts == nil {
		a.hosts = make(map[int32]int64)
		a.groups = make(map[int64]*imbGroup)
	}
	a.hosts[e.Host] += e.DurNs
	g := a.groups[e.Seq]
	if g == nil {
		g = &imbGroup{}
		a.groups[e.Seq] = g
	}
	// Idle hosts (zero duration) are excluded from the sample, exactly
	// as dgalois's roundImbalance excludes them from the mean.
	if e.DurNs > 0 {
		g.sum += e.DurNs
		g.max = max(g.max, e.DurNs)
		g.participants++
	}
}

// Report computes the aggregate. Groups fold in Seq order, matching
// the coordinator's serial accumulation bit for bit.
func (a *ImbalanceAccum) Report() ImbalanceReport {
	r := ImbalanceReport{Mean: 1.0, MaxRatio: 1.0}
	for h, ns := range a.hosts {
		r.PerHost = append(r.PerHost, HostLoad{Host: h, ComputeNs: ns})
	}
	sort.Slice(r.PerHost, func(i, j int) bool { return r.PerHost[i].Host < r.PerHost[j].Host })
	seqs := make([]int64, 0, len(a.groups))
	for s := range a.groups {
		seqs = append(seqs, s)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	sum := 0.0
	for _, s := range seqs {
		g := a.groups[s]
		if g.participants == 0 {
			continue
		}
		mean := float64(g.sum) / float64(g.participants)
		imb := float64(g.max) / mean
		sum += imb
		r.Phases++
		if imb > r.MaxRatio {
			r.MaxRatio = imb
		}
	}
	if r.Phases > 0 {
		r.Mean = sum / float64(r.Phases)
	}
	return r
}

// RoundCost summarizes one BSP round, keyed by (Epoch, Round).
//
// A cluster trace holds one slice of every exchange per recording
// host (the event's origin), all measuring the same barrier interval,
// so the round's wall time is taken per origin and never summed across
// origins: the sum over the origin's compute dispatches of the slowest
// host slice, plus the origin's exchange slices. WallNs is the largest
// origin's value; ExchangeNs and HiddenNs come from that same origin.
// An in-process trace has the one origin 0.
type RoundCost struct {
	Epoch, Round int32
	WallNs       int64
	// ExchangeNs sums the bounding origin's exchange slices; HiddenNs
	// is the part of that wait the pipelined exchange hid behind
	// compute (0 on non-pipelined traces).
	ExchangeNs int64
	HiddenNs   int64
	// Host bounded the round: it had the largest busy time
	// (compute+pack+unpack), BoundNs; ties go to the lowest host, and
	// -1 means no host recorded a slice. MeanNs is the mean busy time
	// over the round's hosts; BoundNs/MeanNs is the round's imbalance.
	Host    int32
	BoundNs int64
	MeanNs  int64
}

// HostBound aggregates one host's bounded rounds over a trace.
type HostBound struct {
	Host    int32
	Rounds  int
	BoundNs int64
	// Share is BoundNs over every bounded round's BoundNs.
	Share float64
}

// RoundReport aggregates per-round latency and critical-path blame.
type RoundReport struct {
	// Setup holds each epoch's round 0: per-batch setup phases recorded
	// before the first BSP round. It is work, but not a round, and is
	// never blamed.
	Setup []RoundCost
	// Rounds lists rounds ≥ 1 in ascending (epoch, round) order.
	Rounds []RoundCost
	// Blame ranks hosts by rounds bounded, then bounded time, then
	// host.
	Blame []HostBound
}

type roundKey struct{ epoch, round int32 }

// originWall is one origin's view of a round's wall time.
type originWall struct {
	computeMax map[int64]int64 // seq -> max host slice
	exchangeNs int64
	hiddenNs   int64
}

type roundAgg struct {
	origins map[int32]*originWall
	busyNs  map[int32]int64 // host -> compute+pack+unpack
}

// RoundAccum folds phase events into a RoundReport.
type RoundAccum struct {
	rounds map[roundKey]*roundAgg
}

// Observe folds one event (non-phase events are ignored).
func (a *RoundAccum) Observe(e Event) {
	if e.Kind != KindPhase {
		return
	}
	if a.rounds == nil {
		a.rounds = make(map[roundKey]*roundAgg)
	}
	k := roundKey{e.Epoch, e.Round}
	g := a.rounds[k]
	if g == nil {
		g = &roundAgg{origins: make(map[int32]*originWall), busyNs: make(map[int32]int64)}
		a.rounds[k] = g
	}
	o := g.origins[e.Origin]
	if o == nil {
		o = &originWall{computeMax: make(map[int64]int64)}
		g.origins[e.Origin] = o
	}
	switch e.Phase {
	case PhaseCompute:
		o.computeMax[e.Seq] = max(o.computeMax[e.Seq], e.DurNs)
	case PhaseExchange:
		o.exchangeNs += e.DurNs
		o.hiddenNs += e.HiddenNs
	}
	switch e.Phase {
	case PhaseCompute, PhasePack, PhaseUnpack:
		if e.Host >= 0 {
			g.busyNs[e.Host] += e.DurNs
		}
	}
}

// Report computes the aggregate.
func (a *RoundAccum) Report() RoundReport {
	keys := make([]roundKey, 0, len(a.rounds))
	for k := range a.rounds {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].epoch != keys[j].epoch {
			return keys[i].epoch < keys[j].epoch
		}
		return keys[i].round < keys[j].round
	})
	var r RoundReport
	blame := make(map[int32]*HostBound)
	var totalBound int64
	for _, k := range keys {
		c := a.rounds[k].cost(k)
		if k.round == 0 {
			r.Setup = append(r.Setup, c)
			continue
		}
		r.Rounds = append(r.Rounds, c)
		if c.Host < 0 {
			continue
		}
		hb := blame[c.Host]
		if hb == nil {
			hb = &HostBound{Host: c.Host}
			blame[c.Host] = hb
		}
		hb.Rounds++
		hb.BoundNs += c.BoundNs
		totalBound += c.BoundNs
	}
	for _, hb := range blame {
		if totalBound > 0 {
			hb.Share = float64(hb.BoundNs) / float64(totalBound)
		}
		r.Blame = append(r.Blame, *hb)
	}
	sort.Slice(r.Blame, func(i, j int) bool {
		x, y := r.Blame[i], r.Blame[j]
		if x.Rounds != y.Rounds {
			return x.Rounds > y.Rounds
		}
		if x.BoundNs != y.BoundNs {
			return x.BoundNs > y.BoundNs
		}
		return x.Host < y.Host
	})
	return r
}

// cost folds one round: the bounding origin's wall time and the
// bounding host's busy time, ties to the lowest origin and host.
func (g *roundAgg) cost(k roundKey) RoundCost {
	c := RoundCost{Epoch: k.epoch, Round: k.round, Host: -1}
	best := int32(-1)
	for origin, o := range g.origins {
		wall := o.exchangeNs
		for _, d := range o.computeMax {
			wall += d
		}
		if best < 0 || wall > c.WallNs || (wall == c.WallNs && origin < best) {
			best = origin
			c.WallNs, c.ExchangeNs, c.HiddenNs = wall, o.exchangeNs, o.hiddenNs
		}
	}
	var sum int64
	for h, ns := range g.busyNs {
		sum += ns
		if c.Host < 0 || ns > c.BoundNs || (ns == c.BoundNs && h < c.Host) {
			c.Host, c.BoundNs = h, ns
		}
	}
	if n := int64(len(g.busyNs)); n > 0 {
		c.MeanNs = sum / n
	}
	return c
}

// Divergence is the result of comparing two canonical traces.
type Divergence struct {
	// Index is the position of the first differing canonical event, or
	// -1 when the traces are identical.
	Index int
	// A and B hold the differing events; nil on the side whose trace
	// ended first when one is a strict prefix of the other.
	A, B *Event
}

// Diff canonicalizes both traces (Canonical: sort + strip timings) and
// returns the first divergence. Two runs of the same configuration
// canonicalize identically, so the first divergent event localizes
// where a perturbed run left the reference schedule.
func Diff(a, b []Event) Divergence {
	ca, cb := Canonical(a), Canonical(b)
	n := min(len(ca), len(cb))
	for i := 0; i < n; i++ {
		if ca[i] != cb[i] {
			return Divergence{Index: i, A: &ca[i], B: &cb[i]}
		}
	}
	if len(ca) > n {
		return Divergence{Index: n, A: &ca[n]}
	}
	if len(cb) > n {
		return Divergence{Index: n, B: &cb[n]}
	}
	return Divergence{Index: -1}
}
