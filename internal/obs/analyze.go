package obs

import "sort"

// This file holds the trace-analysis accumulators behind cmd/bctrace:
// per-host load imbalance, per-round latency and critical path, and
// canonical-trace comparison. The accumulators consume events one at a
// time (feed them from an EventReader) so detail traces far larger
// than memory stream through; their working state is bounded by
// rounds × hosts, not by event count.

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

// RoundCost summarizes one BSP round's critical path.
type RoundCost struct {
	Round int32
	// WallNs approximates the round's wall time: the sum over its
	// compute dispatches of the slowest host's slice, plus its exchange
	// slices.
	WallNs int64
	// ExchangeNs sums the round's exchange slices; HiddenNs is the part
	// of that wait the pipelined exchange hid behind compute (0 on
	// non-pipelined traces).
	ExchangeNs int64
	HiddenNs   int64
	// SlowHost is the host with the most compute time in the round
	// (the round's critical-path host); SlowNs is that time.
	SlowHost int32
	SlowNs   int64
}

// RoundReport aggregates per-round latency.
type RoundReport struct {
	Rounds []RoundCost // ascending round order
	// SlowestCount maps host -> number of rounds it was the
	// critical-path host.
	SlowestCount map[int32]int
}

type roundAgg struct {
	computeMax map[int64]int64 // seq -> max host slice
	exchangeNs int64
	hiddenNs   int64
	hostNs     map[int32]int64
}

// RoundAccum folds phase events into a RoundReport.
type RoundAccum struct {
	rounds map[int32]*roundAgg
}

// Observe folds one event (non-phase events are ignored).
func (a *RoundAccum) Observe(e Event) {
	if e.Kind != KindPhase {
		return
	}
	if a.rounds == nil {
		a.rounds = make(map[int32]*roundAgg)
	}
	g := a.rounds[e.Round]
	if g == nil {
		g = &roundAgg{computeMax: make(map[int64]int64), hostNs: make(map[int32]int64)}
		a.rounds[e.Round] = g
	}
	switch e.Phase {
	case PhaseCompute:
		g.computeMax[e.Seq] = max(g.computeMax[e.Seq], e.DurNs)
		g.hostNs[e.Host] += e.DurNs
	case PhaseExchange:
		g.exchangeNs += e.DurNs
		g.hiddenNs += e.HiddenNs
	}
}

// Report computes the aggregate.
func (a *RoundAccum) Report() RoundReport {
	r := RoundReport{SlowestCount: make(map[int32]int)}
	for round, g := range a.rounds {
		c := RoundCost{Round: round, WallNs: g.exchangeNs,
			ExchangeNs: g.exchangeNs, HiddenNs: g.hiddenNs, SlowHost: -1}
		for _, d := range g.computeMax {
			c.WallNs += d
		}
		for h, ns := range g.hostNs {
			if ns > c.SlowNs || (ns == c.SlowNs && (c.SlowHost == -1 || h < c.SlowHost)) {
				c.SlowHost, c.SlowNs = h, ns
			}
		}
		r.Rounds = append(r.Rounds, c)
		if c.SlowHost >= 0 {
			r.SlowestCount[c.SlowHost]++
		}
	}
	sort.Slice(r.Rounds, func(i, j int) bool { return r.Rounds[i].Round < r.Rounds[j].Round })
	return r
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
