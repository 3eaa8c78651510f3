package mrbcdist

import (
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"mrbc/internal/partition"
)

// backwardCheck cross-checks one batch's backward rounds against the
// three facts its 8-byte records rely on (DESIGN.md §5, "Backward sync
// sends only what the receiver lacks"):
//
//	(a) every proxy of v flags (v, s) in the round its master does, with
//	    the master's source — what the receiver reads from its own due;
//	(b) a reduce that was skipped would have carried exactly +0.0: the
//	    master's δ equals, bit for bit, the sum over every proxy's partial
//	    in sender order, zeros included;
//	(c) every proxy that runs AccumulateIn(v, s) holds the master's δ,
//	    and every flagged proxy with local in-edges runs it.
//
// A host's maps are written only by that host's phase and read by the
// other hosts in a later phase.
type backwardCheck struct {
	t     *testing.T
	pt    *partition.Partitioning
	pre   []map[uint32]float64 // per host: each flagged proxy's δ partial before the reduce
	final []map[uint32]float64 // per host: each synchronized master's δ after the reduce
	tally *backwardTally
}

// backwardTally counts, over a run, what the checks saw: a grid cell
// whose skips and readers are all zero would check nothing.
type backwardTally struct {
	flags, skippedReduces, skippedBroadcasts, readers, errors atomic.Int64
}

func (c *backwardCheck) errorf(format string, args ...any) {
	if c.tally.errors.Add(1) <= 5 {
		c.t.Errorf(format, args...)
	}
}

// instrument wraps b's backward phases with the checks.
func (tally *backwardTally) instrument(t *testing.T, pt *partition.Partitioning) func(*batchRun) {
	return func(b *batchRun) {
		c := &backwardCheck{t: t, pt: pt, tally: tally,
			pre: make([]map[uint32]float64, pt.NumHosts), final: make([]map[uint32]float64, pt.NumHosts)}
		flags, union, accumulate := b.phases.backwardFlags, b.phases.union, b.phases.accumulate
		b.phases.backwardFlags = func(h int) { flags(h); c.afterFlags(b, h) }
		b.phases.union = func(h int) { c.beforeUnion(b, h); union(h); c.afterUnion(b, h) }
		b.phases.accumulate = func(h int) { c.beforeAccumulate(b, h); accumulate(h) }
	}
}

func (c *backwardCheck) afterFlags(b *batchRun, h int) {
	st := b.states[h]
	pre := make(map[uint32]float64, len(st.flags))
	for _, f := range st.flags {
		p := st.engine.DeltaPartial(f.V, f.Src)
		pre[f.V] = p
		if math.Signbit(p) {
			c.errorf("batch %d round %d host %d: (%d,%d) holds δ partial %v", b.bi, b.r, h, f.V, f.Src, p)
		}
		if p != 0 && st.part.Local.OutDegree(f.V) == 0 {
			c.errorf("batch %d round %d host %d: (%d,%d) holds δ partial %v without a local out-edge", b.bi, b.r, h, f.V, f.Src, p)
		}
		if !st.part.IsMaster[f.V] && p == 0 {
			c.tally.skippedReduces.Add(1)
		}
	}
	c.tally.flags.Add(int64(len(st.flags)))
	c.pre[h] = pre
}

func (c *backwardCheck) beforeUnion(b *batchRun, h int) {
	st := b.states[h]
	// (a), mirror to master: a flagged mirror names the source its
	// master flagged.
	for h2, st2 := range b.states {
		if h2 == h {
			continue
		}
		for _, f := range st2.flags {
			gid := st2.part.GlobalID[f.V]
			if st2.part.IsMaster[f.V] || int(c.pt.MasterOf[gid]) != h {
				continue
			}
			ml, _ := st.part.LocalID(gid)
			if st.due[ml] != int32(f.Src) {
				c.errorf("batch %d round %d: host %d flags vertex %d with source %d, its master on host %d with %d",
					b.bi, b.r, h2, gid, f.Src, h, st.due[ml])
			}
		}
	}
	for _, f := range st.flags {
		if !st.part.IsMaster[f.V] {
			continue
		}
		gid := st.part.GlobalID[f.V]
		// (b): the sum the full reduce made, every proxy's term in
		// sender order.
		want := c.pre[h][f.V]
		for h2 := range b.states {
			if h2 == h {
				continue
			}
			l2, ok := c.pt.Parts[h2].LocalID(gid)
			if !ok {
				continue
			}
			p, flagged := c.pre[h2][l2]
			if !flagged {
				// (a), master to mirror: the mirror flags the vertex too.
				c.errorf("batch %d round %d: host %d masters vertex %d's flag, its proxy on host %d has none", b.bi, b.r, h, gid, h2)
			}
			want += p
		}
		if got := st.engine.DeltaPartial(f.V, f.Src); math.Float64bits(got) != math.Float64bits(want) {
			c.errorf("batch %d round %d: master of (%d,%d) sums δ %v, the full reduce %v", b.bi, b.r, gid, f.Src, got, want)
		}
	}
}

func (c *backwardCheck) afterUnion(b *batchRun, h int) {
	st := b.states[h]
	final := make(map[uint32]float64, len(st.synced))
	for _, f := range st.synced {
		final[f.V] = st.engine.DeltaPartial(f.V, f.Src)
	}
	c.final[h] = final
}

func (c *backwardCheck) beforeAccumulate(b *batchRun, h int) {
	st := b.states[h]
	synced := make(map[uint32]bool, len(st.synced))
	for _, f := range st.synced {
		synced[f.V] = true
		gid := st.part.GlobalID[f.V]
		m := c.pt.MasterOf[gid]
		ml, _ := c.pt.Parts[m].LocalID(gid)
		want, ok := c.final[m][ml]
		if !ok || st.due[f.V] != int32(f.Src) {
			c.errorf("batch %d round %d host %d: accumulates (%d,%d), which its master did not synchronize", b.bi, b.r, h, gid, f.Src)
			continue
		}
		// (c): the reader holds the master's value.
		if got := st.engine.DeltaPartial(f.V, f.Src); math.Float64bits(got) != math.Float64bits(want) {
			c.errorf("batch %d round %d host %d: accumulates (%d,%d) from δ %v, its master holds %v", b.bi, b.r, h, gid, f.Src, got, want)
		}
	}
	for _, f := range st.flags {
		switch {
		case st.part.Local.InDegree(f.V) == 0:
			if !st.part.IsMaster[f.V] {
				c.tally.skippedBroadcasts.Add(1)
			}
		case synced[f.V]:
			c.tally.readers.Add(1)
		default:
			c.errorf("batch %d round %d host %d: (%d,%d) has local in-edges but is not accumulated",
				b.bi, b.r, h, st.part.GlobalID[f.V], f.Src)
		}
	}
}

// TestBackwardSyncReachesEveryReader runs the digest grid — 5 graphs ×
// 2/4/8 hosts × edge/cartesian cut × pipeline depth 1/2 — with the
// backward cross-checks above after every round, and checks that the
// instrumented run's scores equal the plain run's. Every cell skips
// reduces, and every Cartesian cell skips broadcasts as well (under the
// edge cut a mirror exists only as the head of a local edge, so every
// mirror reads), so the facts are exercised where they matter. -short
// runs TestDigestGrid's every seventh configuration.
func TestBackwardSyncReachesEveryReader(t *testing.T) {
	for i, cfg := range digestConfigs() {
		if testing.Short() && i%7 != 0 {
			continue
		}
		t.Run(cfg.name, func(t *testing.T) {
			tally := &backwardTally{}
			got, _, err := run(cfg.g, cfg.pt, cfg.sources, cfg.opts, tally.instrument(t, cfg.pt))
			if err != nil {
				t.Fatal(err)
			}
			want, _ := Run(cfg.g, cfg.pt, cfg.sources, cfg.opts)
			for v := range want {
				if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
					t.Fatalf("vertex %d: instrumented run scores %v, plain run %v", v, got[v], want[v])
				}
			}
			counts := fmt.Sprintf("%d flags, %d reduces and %d broadcasts skipped, %d readers",
				tally.flags.Load(), tally.skippedReduces.Load(), tally.skippedBroadcasts.Load(), tally.readers.Load())
			cart := strings.Contains(cfg.name, "/cart/")
			if tally.skippedReduces.Load() == 0 || tally.readers.Load() == 0 || cart && tally.skippedBroadcasts.Load() == 0 {
				t.Fatalf("the checks saw nothing to check: %s", counts)
			}
			t.Log(counts)
		})
	}
}
