// Package core implements Min-Rounds BC (MRBC), the paper's primary
// contribution, in two forms:
//
//   - An exact CONGEST-model implementation of Algorithms 3
//     (Directed-APSP), 4 (APSP-Finalizer), and 5 (BC accumulation),
//     whose round and message counts are validated against Theorem 1,
//     Lemma 6, and Lemma 8 by the package tests.
//   - A batched shared-memory engine (engine.go) implementing the
//     D-Galois data-structure optimizations of Section 4.3 (the dense
//     per-source array Av; the sorted distance map Mv is replaced by
//     per-vertex unsent bit rows), reused by the distributed
//     implementation in internal/mrbcdist.
//
// This file contains the CONGEST implementation.
package core

import (
	"fmt"
	"sort"

	"mrbc/internal/congest"
	"mrbc/internal/graph"
)

// TerminationMode selects how the CONGEST APSP execution terminates,
// matching the three cases of Theorem 1.
type TerminationMode int

const (
	// ModeFixed2N runs exactly 2n rounds with no extra machinery
	// (Theorem 1 part I.2: 2n rounds, at most mn messages).
	ModeFixed2N TerminationMode = iota
	// ModeFinalizer runs Algorithm 4 alongside Algorithm 3: a BFS tree
	// aggregates the diameter, which is broadcast to stop execution in
	// min(2n, n+5D) rounds (Theorem 1 part I.1 / Lemma 6). Requires a
	// strongly connected graph to beat 2n.
	ModeFinalizer
	// ModeQuiesce uses global termination detection as the D-Galois
	// implementation does (Lemma 8): execution stops at the end of the
	// first round in which no message is sent and every entry has been
	// transmitted. With k sources this yields at most k+H rounds (+1
	// detection round), where H is the largest finite distance from
	// the sources.
	ModeQuiesce
)

// listEntry is one (distance, source) pair of the ordered list Lv.
// Entries compare lexicographically: by distance, then by source ID.
type listEntry struct {
	d uint32
	s uint32 // source vertex ID (not compact index)
}

func entryLess(a, b listEntry) bool {
	if a.d != b.d {
		return a.d < b.d
	}
	return a.s < b.s
}

// apspMsg is the forward-phase message (dsv, s, σsv) of Algorithm 3.
type apspMsg struct {
	d     uint32
	s     uint32
	sigma float64
}

// accMsg is the backward-phase message of Algorithm 5, carrying
// (1 + δs•(w)) / σsw for source s.
type accMsg struct {
	s uint32
	m float64
}

// Finalizer (Algorithm 4) message types.
type bfsExplore struct{}
type bfsChild struct{}
type finMax struct{ d uint32 }
type finDiam struct{ d uint32 }

// n-computation message types (Step 5-6 of Algorithm 3, used when n is
// not known): subtree counts converge up the BFS tree, and the total
// broadcasts back down.
type cntReport struct{ c uint32 }
type nBcast struct{ n uint32 }

type phase int

const (
	phaseForward phase = iota
	phaseBackward
)

// bcNode is the per-vertex state machine for Algorithms 3, 4, and 5.
type bcNode struct {
	id    uint32
	out   []uint32 // Γout in G
	nbrs  []uint32 // neighbors in UG (channels)
	nAll  int      // n, number of vertices (known to all nodes)
	srcIx map[uint32]int

	mode TerminationMode
	ph   phase

	// Algorithm 3 state. Per-source slices are indexed by compact
	// source index.
	list      []listEntry
	dist      []uint32
	sigma     []float64
	preds     [][]uint32
	tau       []int // round the forward message for source s was sent
	sent      []bool
	sentCount int

	// Algorithm 4 state.
	bfsDepth    int // -1 until reached
	bfsParent   uint32
	bfsChildren []uint32
	bfsForward  bool // must broadcast explore next round
	bfsAckOwed  bool // must send bfsChild to parent next round
	childMax    []uint32
	fv          bool   // the flag fv of Algorithm 4: steps 3-9 ran
	diameter    uint32 // broadcast network diameter; InfDist until known
	diamForward bool   // must forward finDiam next round
	stopped     bool

	// n-computation state (Steps 5-6 of Algorithm 3). When nAll starts
	// at 0 the node must learn n through the BFS-tree convergecast
	// before the Algorithm 4 conditions involving |Lv| = n can fire.
	childCounts []uint32
	cntSent     bool
	nForward    bool // must forward the nBcast next round

	// revSrc maps compact source index -> source vertex ID.
	revSrc []uint32

	// Algorithm 5 state.
	delta    []float64
	totalR   int // R: termination round of the forward phase
	accDone  int // how many sources have sent their accumulation message
	accOrder []accSlot
}

type accSlot struct {
	round int // Asv
	six   int // compact source index
}

func (nd *bcNode) Send(r int, send func(uint32, any)) {
	if nd.ph == phaseBackward {
		nd.sendBackward(r, send)
		return
	}
	if nd.stopped {
		return
	}
	// Algorithm 4 runs in parallel with Algorithm 3 (Step 1 of Alg 3).
	if nd.mode == ModeFinalizer {
		nd.sendFinalizer(r, send)
		if nd.stopped {
			return
		}
	}
	// Step 8-9 of Algorithm 3: send the entry whose scheduled round is
	// r. Scheduled rounds d + position are strictly increasing along
	// the list, so binary search finds the unique candidate.
	i := sort.Search(len(nd.list), func(i int) bool {
		return int(nd.list[i].d)+i+1 >= r
	})
	if i >= len(nd.list) || int(nd.list[i].d)+i+1 != r {
		return
	}
	e := nd.list[i]
	six := nd.srcIx[e.s]
	if nd.sent[six] {
		return
	}
	nd.sent[six] = true
	nd.sentCount++
	nd.tau[six] = r
	msg := apspMsg{d: e.d, s: e.s, sigma: nd.sigma[six]}
	for _, w := range nd.out {
		send(w, msg)
	}
}

func (nd *bcNode) Receive(r int, inbox []congest.Delivery) {
	if nd.ph == phaseBackward {
		nd.receiveBackward(inbox)
		return
	}
	for _, dl := range inbox {
		switch m := dl.Payload.(type) {
		case apspMsg:
			nd.relax(dl.From, m)
		case bfsExplore:
			if nd.bfsDepth < 0 {
				nd.bfsDepth = r
				nd.bfsParent = dl.From
				nd.bfsForward = true
				nd.bfsAckOwed = true
			}
		case bfsChild:
			nd.bfsChildren = append(nd.bfsChildren, dl.From)
		case finMax:
			nd.childMax = append(nd.childMax, m.d)
		case finDiam:
			if nd.diameter == graph.InfDist {
				nd.diameter = m.d
				nd.diamForward = true
			}
		case cntReport:
			nd.childCounts = append(nd.childCounts, m.c)
		case nBcast:
			if nd.nAll == 0 {
				nd.nAll = int(m.n)
				nd.nForward = true
			}
		default:
			panic(fmt.Sprintf("core: vertex %d: unexpected message %T", nd.id, dl.Payload))
		}
	}
}

// relax implements Steps 11-17 of Algorithm 3.
func (nd *bcNode) relax(from uint32, m apspMsg) {
	six, ok := nd.srcIx[m.s]
	if !ok {
		panic(fmt.Sprintf("core: vertex %d: message for unknown source %d", nd.id, m.s))
	}
	cand := m.d + 1
	cur := nd.dist[six]
	switch {
	case cur == graph.InfDist:
		// Step 12-13: no entry yet; insert.
		nd.insertEntry(listEntry{d: cand, s: m.s})
		nd.dist[six] = cand
		nd.sigma[six] = m.sigma
		nd.preds[six] = append(nd.preds[six][:0], from)
	case cur == cand:
		// Step 14-15: another shortest path.
		nd.sigma[six] += m.sigma
		nd.preds[six] = append(nd.preds[six], from)
	case cur > cand:
		// Step 16-17: strictly better distance; replace.
		if nd.sent[six] {
			// Lemma 4 guarantees sent distances are final; a violation
			// means the pipelining invariant broke.
			panic(fmt.Sprintf("core: vertex %d: improvement for source %d after send", nd.id, m.s))
		}
		nd.removeEntry(listEntry{d: cur, s: m.s})
		nd.insertEntry(listEntry{d: cand, s: m.s})
		nd.dist[six] = cand
		nd.sigma[six] = m.sigma
		nd.preds[six] = append(nd.preds[six][:0], from)
	}
}

func (nd *bcNode) insertEntry(e listEntry) {
	i := sort.Search(len(nd.list), func(i int) bool { return !entryLess(nd.list[i], e) })
	nd.list = append(nd.list, listEntry{})
	copy(nd.list[i+1:], nd.list[i:])
	nd.list[i] = e
}

func (nd *bcNode) removeEntry(e listEntry) {
	i := sort.Search(len(nd.list), func(i int) bool { return !entryLess(nd.list[i], e) })
	if i >= len(nd.list) || nd.list[i] != e {
		panic(fmt.Sprintf("core: vertex %d: entry (%d,%d) not found", nd.id, e.d, e.s))
	}
	nd.list = append(nd.list[:i], nd.list[i+1:]...)
}

// sendFinalizer implements Algorithm 4 plus the BFS-tree construction
// of Step 1 of Algorithm 3. The BFS tree is built over the channels
// (UG) rooted at vertex 0 (the smallest ID, the paper's v1).
func (nd *bcNode) sendFinalizer(r int, send func(uint32, any)) {
	// BFS tree construction.
	if nd.id == 0 && r == 1 {
		nd.bfsDepth = 0
		nd.bfsParent = nd.id
		for _, w := range nd.nbrs {
			send(w, bfsExplore{})
		}
	}
	if nd.bfsForward {
		nd.bfsForward = false
		if nd.bfsAckOwed {
			nd.bfsAckOwed = false
			send(nd.bfsParent, bfsChild{})
		}
		for _, w := range nd.nbrs {
			if w != nd.bfsParent {
				send(w, bfsExplore{})
			}
		}
	}
	// Steps 5-6 of Algorithm 3 (n unknown): convergecast subtree counts
	// up the BFS tree, then broadcast n back down. Children sets are
	// final after round depth+2 (see below), so the count can only be
	// reported after that.
	if nd.nAll == 0 && nd.bfsDepth >= 0 && r > nd.bfsDepth+2 {
		if !nd.cntSent && len(nd.childCounts) >= len(nd.bfsChildren) {
			total := uint32(1)
			for _, c := range nd.childCounts {
				total += c
			}
			nd.cntSent = true
			if nd.id == 0 {
				nd.nAll = int(total)
				nd.nForward = true
			} else {
				send(nd.bfsParent, cntReport{total})
			}
		}
	}
	if nd.nForward {
		nd.nForward = false
		for _, c := range nd.bfsChildren {
			send(c, nBcast{uint32(nd.nAll)})
		}
	}
	// Step 1 of Algorithm 4: forward the diameter and stop.
	if nd.diamForward {
		nd.diamForward = false
		for _, c := range nd.bfsChildren {
			send(c, finDiam{nd.diameter})
		}
		nd.stopped = true
		return
	}
	if nd.fv || nd.bfsDepth < 0 {
		return
	}
	// The children set of v is final after round depth(v)+2; evaluating
	// earlier could treat an incomplete child set as complete.
	if r <= nd.bfsDepth+2 {
		return
	}
	// Step 2: |Lv| = n and all entries sent (r >= max scheduled round).
	// With unknown n, the check waits until the convergecast delivered
	// the vertex count.
	if nd.nAll == 0 || len(nd.list) != nd.nAll || nd.sentCount != len(nd.list) {
		return
	}
	if len(nd.childMax) < len(nd.bfsChildren) {
		return // Step 6: not all children reported yet
	}
	// Steps 3-9.
	dv := uint32(0)
	for _, e := range nd.list {
		if e.d > dv {
			dv = e.d
		}
	}
	for _, c := range nd.childMax {
		if c > dv {
			dv = c
		}
	}
	nd.fv = true
	if nd.id == 0 {
		// Step 9: v1 computed the diameter; broadcast and stop.
		nd.diameter = dv
		for _, c := range nd.bfsChildren {
			send(c, finDiam{dv})
		}
		nd.stopped = true
		return
	}
	send(nd.bfsParent, finMax{dv})
}

// Done reports local completion: all entries transmitted, and in
// finalizer mode the diameter received.
func (nd *bcNode) Done() bool {
	if nd.ph == phaseBackward {
		return nd.accDone == len(nd.accOrder)
	}
	if nd.sentCount != len(nd.list) {
		return false
	}
	if nd.mode == ModeFinalizer {
		return nd.stopped
	}
	return true
}

// beginBackward switches the node to Algorithm 5 with forward
// termination round R. Asv = R - τsv + 1 keeps rounds 1-based; the
// uniform shift preserves the ordering Lemma 7 relies on.
func (nd *bcNode) beginBackward(R int) {
	nd.ph = phaseBackward
	nd.totalR = R
	nd.accOrder = nd.accOrder[:0]
	for s, six := range nd.srcIx {
		_ = s
		if nd.dist[six] == graph.InfDist {
			continue
		}
		nd.accOrder = append(nd.accOrder, accSlot{round: R - nd.tau[six] + 1, six: six})
	}
	sort.Slice(nd.accOrder, func(i, j int) bool { return nd.accOrder[i].round < nd.accOrder[j].round })
	nd.accDone = 0
}

func (nd *bcNode) sendBackward(r int, send func(uint32, any)) {
	// Step 6-7 of Algorithm 5: each source's accumulation message goes
	// out in its own round Asv (all Asv are distinct at a vertex since
	// the τsv are).
	for nd.accDone < len(nd.accOrder) && nd.accOrder[nd.accDone].round == r {
		six := nd.accOrder[nd.accDone].six
		nd.accDone++
		if nd.sigma[six] == 0 {
			panic(fmt.Sprintf("core: vertex %d: zero sigma at accumulation", nd.id))
		}
		msg := accMsg{s: nd.sourceOf(six), m: (1 + nd.delta[six]) / nd.sigma[six]}
		for _, p := range nd.preds[six] {
			send(p, msg)
		}
	}
}

func (nd *bcNode) receiveBackward(inbox []congest.Delivery) {
	for _, dl := range inbox {
		m, ok := dl.Payload.(accMsg)
		if !ok {
			panic(fmt.Sprintf("core: vertex %d: unexpected backward message %T", nd.id, dl.Payload))
		}
		six := nd.srcIx[m.s]
		// Step 8-9: δs•(v) += σsv · m.
		nd.delta[six] += nd.sigma[six] * m.m
	}
}

// sourceOf maps a compact index back to the source vertex ID.
func (nd *bcNode) sourceOf(six int) uint32 {
	// srcIx is small (k entries); a reverse lookup table is built once
	// per node in newBCNode instead of scanning. See revSrc.
	return nd.revSrc[six]
}

// revSrc is filled by newBCNode.

func newBCNode(g *graph.Graph, ug *graph.Graph, v uint32, sources []uint32, srcIx map[uint32]int, mode TerminationMode, knowsN bool) *bcNode {
	k := len(sources)
	nAll := g.NumVertices()
	if !knowsN {
		nAll = 0
	}
	nd := &bcNode{
		id:       v,
		out:      g.OutNeighbors(v),
		nbrs:     ug.OutNeighbors(v),
		nAll:     nAll,
		srcIx:    srcIx,
		mode:     mode,
		dist:     make([]uint32, k),
		sigma:    make([]float64, k),
		preds:    make([][]uint32, k),
		tau:      make([]int, k),
		sent:     make([]bool, k),
		delta:    make([]float64, k),
		bfsDepth: -1,
		diameter: graph.InfDist,
		revSrc:   sources,
	}
	for i := range nd.dist {
		nd.dist[i] = graph.InfDist
	}
	if six, ok := srcIx[v]; ok {
		// Step 3-4 of Algorithm 3 (restricted to the k sources for the
		// k-SSP variant of Lemma 8).
		nd.dist[six] = 0
		nd.sigma[six] = 1
		nd.list = append(nd.list, listEntry{d: 0, s: v})
	}
	return nd
}
