package mrbcdist

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"mrbc/internal/core"
	"mrbc/internal/dgalois"
	"mrbc/internal/gluon"
	"mrbc/internal/graph"
	"mrbc/internal/partition"
)

// refState is the map-based round state the slabs replaced, kept as the
// oracle for the per-round handlers: arbitration through a winners map
// walked in sorted vertex order with a full proposal rescan per winner,
// and the backward union through a (vertex, source) set walked in sorted
// key order.
type refState struct {
	isMaster  []bool
	engine    *core.Engine
	flags     []core.Flag
	proposals []proposal
	synced    []core.Flag
	flagSet   map[uint64]bool
	bcastByV  map[uint32]int32
}

func refKey(v uint32, s int) uint64 { return uint64(v)<<20 | uint64(s) }

func (st *refState) arbitrate(r int) {
	for _, f := range st.flags {
		if st.isMaster[f.V] {
			d := st.engine.Get(f.V, f.Src)
			st.proposals = append(st.proposals, proposal{v: f.V, src: int32(f.Src), dist: d.Dist, own: true})
		}
	}
	winners := make(map[uint32]proposal, len(st.proposals))
	for _, p := range st.proposals {
		if cur, ok := winners[p.v]; !ok || p.less(&cur) {
			winners[p.v] = p
		}
	}
	order := make([]uint32, 0, len(winners))
	for v := range winners {
		order = append(order, v)
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	for _, v := range order {
		w := winners[v]
		for _, p := range st.proposals {
			if p.v != w.v || p.src != w.src || p.own {
				continue
			}
			if p.dist != w.dist {
				panic(fmt.Sprintf("mrbcdist: proposals for (%d,%d) disagree on distance", p.v, p.src))
			}
			st.engine.MergePartial(p.v, int(p.src), p.dist, p.sigma)
		}
		d := st.engine.Get(w.v, int(w.src))
		st.engine.ApplySync(w.v, int(w.src), d.Dist, d.Sigma, r)
		st.synced = append(st.synced, core.Flag{V: w.v, Src: int(w.src)})
		st.flagSet[refKey(w.v, int(w.src))] = true
		st.bcastByV[w.v] = w.src
	}
	st.proposals = st.proposals[:0]
}

// backUnion takes the (vertex, source) pairs the reduce's unpack
// received from mirrors.
func (st *refState) backUnion(received []core.Flag) {
	for _, f := range received {
		st.flagSet[refKey(f.V, f.Src)] = true
	}
	for _, f := range st.flags {
		if st.isMaster[f.V] {
			st.flagSet[refKey(f.V, f.Src)] = true
		}
	}
	keys := make([]uint64, 0, len(st.flagSet))
	for kk := range st.flagSet {
		keys = append(keys, kk)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, kk := range keys {
		v := uint32(kk >> 20)
		s := int(kk & (1<<20 - 1))
		st.synced = append(st.synced, core.Flag{V: v, Src: s})
		st.bcastByV[v] = int32(s)
	}
}

// roundCase is one master host's view of a round: the proxies it holds,
// what its engine knew before the round, its own due flags, and the
// mirror proposals (forward) or claims (backward) in arrival order.
type roundCase struct {
	n, k     int
	isMaster []bool
	known    []proposal // engine entries present before the round
	flags    []core.Flag
	mirror   []proposal
}

// newRoundCase draws a round with the shapes arbitration must get right:
// distances from a range of three so different sources tie on dist, few
// sources so several mirrors propose the same (v, src) and duplicate the
// master's own proposal, σ partials of wildly different magnitude so
// that any change in the MergePartial order changes the sum's bits, and
// — one draw in eight — no flags or proposals at all.
func newRoundCase(rng *rand.Rand) roundCase {
	c := roundCase{n: 1 + rng.Intn(48), k: 1 + rng.Intn(5)}
	c.isMaster = make([]bool, c.n)
	empty := rng.Intn(8) == 0
	sigma := func() float64 { return rng.Float64() * math.Pow(10, float64(rng.Intn(17)-8)) }
	for v := 0; v < c.n; v++ {
		c.isMaster[v] = rng.Intn(4) != 0
		dist := make([]uint32, c.k) // the one distance every proxy of v agrees on per source
		for s := range dist {
			dist[s] = 1 + uint32(rng.Intn(3))
		}
		var least *proposal
		for s := 0; s < c.k; s++ {
			if rng.Intn(3) == 0 {
				p := &proposal{v: uint32(v), src: int32(s), dist: dist[s], sigma: sigma()}
				c.known = append(c.known, *p)
				if least == nil || p.less(least) {
					least = p
				}
			}
		}
		if empty {
			continue
		}
		// The engine flags a vertex's lexicographically least unsent entry.
		if least != nil && rng.Intn(3) != 0 {
			c.flags = append(c.flags, core.Flag{V: least.v, Src: int(least.src)})
		}
		if c.isMaster[v] {
			for m := rng.Intn(5); m > 0; m-- {
				s := rng.Intn(c.k)
				c.mirror = append(c.mirror, proposal{v: uint32(v), src: int32(s), dist: dist[s], sigma: sigma()})
			}
		}
	}
	// Arrival order is sender-major, so one vertex's proposals interleave
	// with every other vertex's.
	rng.Shuffle(len(c.mirror), func(i, j int) { c.mirror[i], c.mirror[j] = c.mirror[j], c.mirror[i] })
	rng.Shuffle(len(c.flags), func(i, j int) { c.flags[i], c.flags[j] = c.flags[j], c.flags[i] })
	return c
}

func (c roundCase) engine() *core.Engine {
	eng := core.NewEngine(graph.NewBuilder(c.n).Build(), c.k)
	for _, p := range c.known {
		eng.MergePartial(p.v, int(p.src), p.dist, p.sigma)
	}
	return eng
}

func (c roundCase) part() *partition.Part {
	ids := make([]uint32, c.n)
	for i := range ids {
		ids[i] = uint32(i)
	}
	return &partition.Part{GlobalID: ids, IsMaster: c.isMaster}
}

// marks is the mark structure of a host that shares no vertex: the
// handlers under test mark into it, nothing packs from it.
func (c roundCase) marks() *gluon.Marks {
	pt := &partition.Partitioning{NumHosts: 1, Parts: []*partition.Part{c.part()}, MasterOf: make([]int32, c.n)}
	return gluon.NewTopology(pt).NewMarks(0)
}

func (c roundCase) ref() *refState {
	return &refState{isMaster: c.isMaster, engine: c.engine(), flags: c.flags,
		flagSet: map[uint64]bool{}, bcastByV: map[uint32]int32{}}
}

// bcastSet reads the broadcast slab back as the map the oracle keeps.
func bcastSet(st *hostState) map[uint32]int32 {
	m := map[uint32]int32{}
	for v, s := range st.bcast {
		if s != none {
			m[uint32(v)] = s
		}
	}
	return m
}

// oneHostRound is a batch of one host in round r, for calling a round's
// master-side phase on st directly.
func oneHostRound(st *hostState, r int) *batchRun {
	return &batchRun{job: &job{}, states: []*hostState{st}, r: r}
}

// checkClean fails unless resetRound left every slab at none.
func checkClean(t *testing.T, st *hostState) {
	t.Helper()
	for v := range st.head {
		if st.due[v] != none || st.bcast[v] != none || st.head[v] != none {
			t.Fatalf("vertex %d keeps round state after reset: due %d bcast %d head %d", v, st.due[v], st.bcast[v], st.head[v])
		}
	}
	if st.touched.Any() || st.nBcast != 0 || len(st.synced) != 0 {
		t.Fatal("touched set, broadcast count or synced list not empty after reset")
	}
}

// TestSlabHandlersMatchMapOracle compares the slab arbitration and
// backward union with the map-based code they replaced, on random
// proposal multisets: same winners in the same order, same broadcast
// set, and engines left bit-identical — the σ sums pin each vertex's
// MergePartial sequence, the later rounds' flag order pins the order
// vertices were folded in (every engine call reschedules its vertex).
func TestSlabHandlersMatchMapOracle(t *testing.T) {
	forward := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := newRoundCase(rng)
		r := 1 + rng.Intn(4)
		ref := c.ref()
		ref.proposals = append(ref.proposals, c.mirror...)
		ref.arbitrate(r)

		st := newHostState(c.part(), c.marks(), c.engine())
		st.flags = append(st.flags, c.flags...)
		st.markDue()
		st.proposals = append(st.proposals, c.mirror...)
		oneHostRound(st, r).arbitrate(0)

		if !reflect.DeepEqual(st.synced, ref.synced) && len(st.synced)+len(ref.synced) > 0 {
			t.Logf("seed %d: synced %v, oracle %v", seed, st.synced, ref.synced)
			return false
		}
		if got := bcastSet(st); !reflect.DeepEqual(got, ref.bcastByV) || st.nBcast != len(ref.flagSet) {
			t.Logf("seed %d: broadcasts %v (n %d), oracle %v", seed, got, st.nBcast, ref.bcastByV)
			return false
		}
		for v := 0; v < c.n; v++ {
			for s := 0; s < c.k; s++ {
				a, b := st.engine.Get(uint32(v), s), ref.engine.Get(uint32(v), s)
				if a.Dist != b.Dist || math.Float64bits(a.Sigma) != math.Float64bits(b.Sigma) {
					t.Logf("seed %d: (%d,%d) = %+v, oracle %+v", seed, v, s, a, b)
					return false
				}
			}
		}
		for rr := 1; rr <= 3+c.k+1; rr++ {
			if a, b := st.engine.ForwardFlags(rr, nil), ref.engine.ForwardFlags(rr, nil); !reflect.DeepEqual(a, b) {
				t.Logf("seed %d: round %d flags %v, oracle %v", seed, rr, a, b)
				return false
			}
		}
		if len(st.proposals) != 0 {
			t.Logf("seed %d: proposals not consumed", seed)
			return false
		}
		st.resetRound()
		checkClean(t, st)
		return true
	}
	backward := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := newRoundCase(rng)
		// A backward round's flags ascend by vertex, and a mirror's
		// partial names the source its master flagged for the vertex in
		// the same round (TestBackwardSyncReachesEveryReader checks both
		// end to end): the oracle's union of own flags and received
		// claims is then the walk of the master's own flags.
		sort.Slice(c.flags, func(i, j int) bool { return c.flags[i].V < c.flags[j].V })
		var received []core.Flag
		for _, f := range c.flags {
			for m := rng.Intn(3); m > 0 && c.isMaster[f.V]; m-- {
				received = append(received, f)
			}
		}
		ref := c.ref()
		ref.backUnion(received)

		st := newHostState(c.part(), c.marks(), c.engine())
		st.flags = append(st.flags, c.flags...)
		st.markDuePartials()
		oneHostRound(st, 1).union(0)

		if !reflect.DeepEqual(st.synced, ref.synced) && len(st.synced)+len(ref.synced) > 0 {
			t.Logf("seed %d: synced %v, oracle %v", seed, st.synced, ref.synced)
			return false
		}
		if got := bcastSet(st); !reflect.DeepEqual(got, ref.bcastByV) || st.nBcast != len(ref.flagSet) {
			t.Logf("seed %d: broadcasts %v (n %d), oracle %v", seed, got, st.nBcast, ref.bcastByV)
			return false
		}
		st.resetRound()
		checkClean(t, st)
		return true
	}
	n := 2000
	if testing.Short() {
		n = 300
	}
	for name, f := range map[string]func(int64) bool{"forward": forward, "backward": backward} {
		if err := quick.Check(f, &quick.Config{MaxCount: n}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// mustPanic runs f and returns its panic message, failing if it returns.
func mustPanic(t *testing.T, f func()) (msg string) {
	t.Helper()
	defer func() {
		v := recover()
		if v == nil {
			t.Fatal("no panic")
		}
		msg = fmt.Sprint(v)
	}()
	f()
	return ""
}

// TestRoundStatePanics pins the protocol-violation panic of
// arbitration: mirrors that disagree on a winner's distance (kept from
// the map code, which the oracle confirms). The backward slot has no
// claim to check on the wire any more — its records carry no source —
// so TestBackwardSyncReachesEveryReader checks that every proxy flags a
// vertex with its master's source.
func TestRoundStatePanics(t *testing.T) {
	c := roundCase{n: 2, k: 3, isMaster: []bool{true, true}}
	disagree := []proposal{{v: 1, src: 2, dist: 3, sigma: 1}, {v: 1, src: 2, dist: 4, sigma: 1}}

	st := newHostState(c.part(), c.marks(), c.engine())
	st.proposals = append(st.proposals, disagree...)
	got := mustPanic(t, func() { oneHostRound(st, 1).arbitrate(0) })
	ref := c.ref()
	ref.proposals = append(ref.proposals, disagree...)
	if want := mustPanic(t, func() { ref.arbitrate(1) }); got != want || !strings.Contains(got, "(1,2) disagree on distance") {
		t.Fatalf("slab panicked %q, oracle %q", got, want)
	}
}

// layeredGraph is a source (vertex 0) feeding `layers` layers of `width`
// vertices; each vertex points at its own position and the position half
// a layer away in the next layer. IDs interleave the layers, so a
// contiguous-block partition gives every host the same slice of every
// layer and every round the same communication shape.
func layeredGraph(width, layers int) *graph.Graph {
	id := func(layer, pos int) uint32 { return uint32(1 + pos*layers + layer) }
	b := graph.NewBuilder(1 + width*layers)
	for p := 0; p < width; p++ {
		b.AddEdge(0, id(0, p))
		for l := 0; l+1 < layers; l++ {
			b.AddEdge(id(l, p), id(l+1, p))
			b.AddEdge(id(l, p), id(l+1, (p+width/2+1)%width))
		}
	}
	return b.Build()
}

// steadyAllocs samples a round's heap allocations a few times and
// returns the smallest sample: the steady-state cost, without the
// occasional message buffer that is still growing because the layers do
// not split over the hosts quite evenly. Each sample consumes two rounds
// (AllocsPerRun's warm-up call and the measured one).
func steadyAllocs(round func()) float64 {
	least := math.Inf(1)
	for i := 0; i < 4; i++ {
		least = math.Min(least, testing.AllocsPerRun(1, round))
	}
	return least
}

// roundAllocs returns the steady-state heap allocations of one forward
// and one backward round of a single-source batch on layeredGraph(width,
// layers) over 4 in-process hosts — the shipped round body, driven at
// depth 1 — and the proposals a forward round arbitrates. Every proxy
// that can hold a forward entry in a real run — a master, or a mirror
// with local in-edges, the only kind a relax reaches — is told its
// vertex's distance up front, so each round synchronizes exactly one
// layer at all of those proxies and the engines' own slab allocator —
// which carves storage the first time a vertex is reached — stays out of
// the measured rounds: what is left is the handlers and the cluster.
func roundAllocs(t *testing.T, width int) (fwd, back float64, proposals int) {
	const layers, warm = 12, 3
	g := layeredGraph(width, layers)
	pt := partition.CartesianCut(g, 4)
	cluster := dgalois.NewCluster(pt.NumHosts)
	defer cluster.Close()
	j := &job{cluster: cluster, topo: gluon.NewTopology(pt), prog: newProgressGauges(nil),
		sources: []uint32{0}, opts: Options{BatchSize: 1}}
	b := j.newBatch(0, nil)
	b.states = (&statePool{kmax: 1}).makeStates(cluster, b.topo, b.batch)
	for _, st := range b.states {
		for l, gid := range st.part.GlobalID {
			if gid == 0 || !st.part.IsMaster[l] && st.part.Local.InDegree(uint32(l)) == 0 {
				continue
			}
			layer := (int(gid) - 1) % layers
			st.engine.MergePartial(uint32(l), 0, uint32(layer+1), 0)
			if layer == warm {
				proposals++
			}
		}
	}
	r := 0
	forward := func() {
		r++
		if !b.forwardRound(r) {
			t.Fatalf("forward round %d is empty", r)
		}
	}
	for r < warm {
		forward()
	}
	fwd = steadyAllocs(forward)
	for r < layers+1 { // the source, then one layer per round
		forward()
	}
	R := r
	cluster.Compute(func(h int) { b.states[h].engine.StartBackward(R) })
	r = 0
	backward := func() {
		r++
		b.backwardRound(r)
		synced := 0
		for _, st := range b.states {
			synced += len(st.synced)
		}
		if synced == 0 {
			t.Fatalf("backward round %d is empty", r)
		}
	}
	for r < warm {
		backward()
	}
	back = steadyAllocs(backward)
	return fwd, back, proposals
}

// TestRoundHandlersAllocsIndependentOfFrontier pins the slab layout's
// point: a steady-state round allocates the same small number of objects
// (closures and per-phase bookkeeping) whether it arbitrates ten
// proposals or ten thousand. The map-based handlers allocated a winners
// map and two key slices sized by the frontier every round.
func TestRoundHandlersAllocsIndependentOfFrontier(t *testing.T) {
	smallFwd, smallBack, smallN := roundAllocs(t, 5)
	largeFwd, largeBack, largeN := roundAllocs(t, 5200)
	t.Logf("forward %v allocs at %d proposals, %v at %d; backward %v and %v",
		smallFwd, smallN, largeFwd, largeN, smallBack, largeBack)
	if smallN > 20 || largeN < 10000 {
		t.Fatalf("rounds arbitrate %d and %d proposals, want about 10 and at least 10000", smallN, largeN)
	}
	if smallFwd != largeFwd || smallBack != largeBack {
		t.Fatalf("allocations per round grow with the frontier: forward %v -> %v, backward %v -> %v",
			smallFwd, largeFwd, smallBack, largeBack)
	}
	const limit = 64
	if largeFwd > limit || largeBack > limit {
		t.Fatalf("a round allocates %v (forward) / %v (backward) objects, want at most %d", largeFwd, largeBack, limit)
	}
}
