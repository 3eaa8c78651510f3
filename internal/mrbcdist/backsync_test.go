package mrbcdist

import (
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"mrbc/internal/partition"
)

// backwardCheck cross-checks one run's backward rounds against the
// three facts their 8-byte records rely on (DESIGN.md §5, "Backward sync
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
// The hosts are goroutines of an in-process run, each with its own
// engine. A host checks what it alone can see while it runs, and copies
// what the cross-host checks need into seen[host], which only it
// writes; check compares the hosts' copies after the run. No host reads
// another's live state.
type backwardCheck struct {
	t                                                         *testing.T
	pt                                                        *partition.Partitioning
	seen                                                      []map[[2]int]*seenRound // per host, keyed by (batch, backward round)
	flags, skippedReduces, skippedBroadcasts, readers, errors atomic.Int64
}

// seenRound is what one host saw in one backward round of one batch,
// keyed by global vertex ID.
type seenRound struct {
	flags  map[uint32]seenFlag
	summed map[uint32]float64 // each flagged master's δ after the reduce
	final  map[uint32]float64 // each synchronized master's δ after the union
	reads  []seenRead         // the pairs the host accumulates from
}

// seenFlag is a flagged proxy's source, the source its due slot holds,
// and its δ partial before the reduce.
type seenFlag struct {
	src, due int
	pre      float64
}

// seenRead is one pair a host accumulates from, with the source its own
// due slot holds for the vertex and the δ it reads.
type seenRead struct {
	gid      uint32
	src, due int
	delta    float64
}

func newBackwardCheck(t *testing.T, pt *partition.Partitioning) *backwardCheck {
	c := &backwardCheck{t: t, pt: pt, seen: make([]map[[2]int]*seenRound, pt.NumHosts)}
	for h := range c.seen {
		c.seen[h] = map[[2]int]*seenRound{}
	}
	return c
}

func (c *backwardCheck) errorf(format string, args ...any) {
	if c.errors.Add(1) <= 5 {
		c.t.Errorf(format, args...)
	}
}

// instrument wraps the backward phases of b, one host's batch, with the
// recording and the host-local checks.
func (c *backwardCheck) instrument(b *batchRun) {
	flags, union, accumulate := b.phases.backwardFlags, b.phases.union, b.phases.accumulate
	b.phases.backwardFlags = func(h int) { flags(h); c.afterFlags(b, h) }
	b.phases.union = func(h int) { c.beforeUnion(b, h); union(h); c.afterUnion(b, h) }
	b.phases.accumulate = func(h int) { c.beforeAccumulate(b, h); accumulate(h) }
}

func (c *backwardCheck) round(b *batchRun, h int) *seenRound {
	return c.seen[h][[2]int{b.bi, b.r}]
}

// at is host h's record of the round key, empty if it has none.
func (c *backwardCheck) at(h int, key [2]int) *seenRound {
	if rec := c.seen[h][key]; rec != nil {
		return rec
	}
	return &seenRound{}
}

func (c *backwardCheck) afterFlags(b *batchRun, h int) {
	st := b.st
	rec := &seenRound{flags: make(map[uint32]seenFlag, len(st.flags))}
	for _, f := range st.flags {
		p := st.engine.DeltaPartial(f.V, int(f.Src))
		rec.flags[st.part.GlobalID[f.V]] = seenFlag{src: int(f.Src), due: int(st.due[f.V]), pre: p}
		if math.Signbit(p) {
			c.errorf("batch %d round %d host %d: (%d,%d) holds δ partial %v", b.bi, b.r, h, f.V, f.Src, p)
		}
		if p != 0 && st.part.Local.OutDegree(f.V) == 0 {
			c.errorf("batch %d round %d host %d: (%d,%d) holds δ partial %v without a local out-edge", b.bi, b.r, h, f.V, f.Src, p)
		}
		if !st.part.IsMaster[f.V] && p == 0 {
			c.skippedReduces.Add(1)
		}
	}
	c.flags.Add(int64(len(st.flags)))
	c.seen[h][[2]int{b.bi, b.r}] = rec
}

func (c *backwardCheck) beforeUnion(b *batchRun, h int) {
	st, rec := b.st, c.round(b, h)
	rec.summed = map[uint32]float64{}
	for _, f := range st.flags {
		if st.part.IsMaster[f.V] {
			rec.summed[st.part.GlobalID[f.V]] = st.engine.DeltaPartial(f.V, int(f.Src))
		}
	}
}

func (c *backwardCheck) afterUnion(b *batchRun, h int) {
	st, rec := b.st, c.round(b, h)
	rec.final = make(map[uint32]float64, len(st.synced))
	for _, f := range st.synced {
		rec.final[st.part.GlobalID[f.V]] = st.engine.DeltaPartial(f.V, int(f.Src))
	}
}

func (c *backwardCheck) beforeAccumulate(b *batchRun, h int) {
	st, rec := b.st, c.round(b, h)
	synced := make(map[uint32]bool, len(st.synced))
	for _, f := range st.synced {
		synced[f.V] = true
		rec.reads = append(rec.reads, seenRead{gid: st.part.GlobalID[f.V], src: int(f.Src), due: int(st.due[f.V]),
			delta: st.engine.DeltaPartial(f.V, int(f.Src))})
	}
	// (c), second half: every flagged proxy with local in-edges reads.
	for _, f := range st.flags {
		switch {
		case st.part.Local.InDegree(f.V) == 0:
			if !st.part.IsMaster[f.V] {
				c.skippedBroadcasts.Add(1)
			}
		case synced[f.V]:
			c.readers.Add(1)
		default:
			c.errorf("batch %d round %d host %d: (%d,%d) has local in-edges but is not accumulated",
				b.bi, b.r, h, st.part.GlobalID[f.V], f.Src)
		}
	}
}

// check runs the cross-host checks over what every host saw.
func (c *backwardCheck) check() {
	for h, rounds := range c.seen {
		if len(rounds) != len(c.seen[0]) {
			c.errorf("host %d ran %d backward rounds, host 0 %d", h, len(rounds), len(c.seen[0]))
		}
		for key, rec := range rounds {
			bi, r := key[0], key[1]
			for gid, f := range rec.flags {
				m := int(c.pt.MasterOf[gid])
				if m != h {
					// (a), mirror to master: a flagged mirror names the
					// source in its master's due slot.
					mf, ok := c.at(m, key).flags[gid]
					if !ok {
						mf.due = none
					}
					if mf.due != f.src {
						c.errorf("batch %d round %d: host %d flags vertex %d with source %d, its master on host %d with %d",
							bi, r, h, gid, f.src, m, mf.due)
					}
					continue
				}
				// (b): the sum the full reduce made, every proxy's term in
				// sender order.
				want := f.pre
				for h2 := range c.seen {
					if h2 == h {
						continue
					}
					if _, ok := c.pt.Parts[h2].LocalID(gid); !ok {
						continue
					}
					p, flagged := c.at(h2, key).flags[gid]
					if !flagged {
						// (a), master to mirror: the mirror flags the vertex too.
						c.errorf("batch %d round %d: host %d masters vertex %d's flag, its proxy on host %d has none", bi, r, h, gid, h2)
					}
					want += p.pre
				}
				if got := rec.summed[gid]; math.Float64bits(got) != math.Float64bits(want) {
					c.errorf("batch %d round %d: master of (%d,%d) sums δ %v, the full reduce %v", bi, r, gid, f.src, got, want)
				}
			}
			for _, rd := range rec.reads {
				m := int(c.pt.MasterOf[rd.gid])
				want, ok := c.at(m, key).final[rd.gid]
				if !ok || rd.due != rd.src {
					c.errorf("batch %d round %d host %d: accumulates (%d,%d), which its master did not synchronize", bi, r, h, rd.gid, rd.src)
					continue
				}
				// (c): the reader holds the master's value.
				if math.Float64bits(rd.delta) != math.Float64bits(want) {
					c.errorf("batch %d round %d host %d: accumulates (%d,%d) from δ %v, its master holds %v", bi, r, h, rd.gid, rd.src, rd.delta, want)
				}
			}
		}
	}
}

// TestBackwardSyncReachesEveryReader runs the digest grid — 5 graphs ×
// 2/4/8 hosts × edge/cartesian cut × pipeline depth 1/2 — in process,
// each host a goroutine, records every host's backward rounds, checks
// the facts above after the run, and checks that the instrumented run's
// scores equal the plain run's. Every cell skips reduces, and every
// Cartesian cell skips broadcasts as well (under the edge cut a mirror
// exists only as the head of a local edge, so every mirror reads), so
// the facts are exercised where they matter. -short runs TestDigestGrid's
// every seventh configuration.
func TestBackwardSyncReachesEveryReader(t *testing.T) {
	for i, cfg := range digestConfigs() {
		if testing.Short() && i%7 != 0 {
			continue
		}
		t.Run(cfg.name, func(t *testing.T) {
			c := newBackwardCheck(t, cfg.pt)
			got, _, err := run(cfg.g, cfg.pt, cfg.sources, cfg.opts, c.instrument)
			if err != nil {
				t.Fatal(err)
			}
			c.check()
			want, _ := Run(cfg.g, cfg.pt, cfg.sources, cfg.opts)
			for v := range want {
				if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
					t.Fatalf("vertex %d: instrumented run scores %v, plain run %v", v, got[v], want[v])
				}
			}
			counts := fmt.Sprintf("%d flags, %d reduces and %d broadcasts skipped, %d readers",
				c.flags.Load(), c.skippedReduces.Load(), c.skippedBroadcasts.Load(), c.readers.Load())
			cart := strings.Contains(cfg.name, "/cart/")
			if c.skippedReduces.Load() == 0 || c.readers.Load() == 0 || cart && c.skippedBroadcasts.Load() == 0 {
				t.Fatalf("the checks saw nothing to check: %s", counts)
			}
			t.Log(counts)
		})
	}
}
