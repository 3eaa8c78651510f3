// Package partition implements the Gluon-style graph partitioners the
// paper's evaluation uses (§4.1, §5.2): partitioning strategies assign
// every edge to exactly one host and create proxy vertices on each
// host for the endpoints of its edges. One proxy of each vertex is the
// master (holding the canonical value); the rest are mirrors.
//
// Two policies are provided:
//
//   - EdgeCut: 1D outgoing edge-cut. Vertices are split into contiguous
//     blocks balanced by out-degree; a host owns all out-edges of its
//     block.
//   - CartesianCut: 2D Cartesian vertex-cut (Boman et al.), the policy
//     the paper uses at scale ("we used the Cartesian vertex-cut
//     partitioning policy, which performs well at scale", §5.2). Hosts
//     form an r×c grid; edge (u,v) goes to the host at (row of u's
//     owner block, column of v's owner block).
package partition

import (
	"fmt"
	"slices"

	"mrbc/internal/graph"
)

// Part is one host's share of the graph.
type Part struct {
	Host int
	// Local is the host's subgraph over local vertex IDs [0, P): it
	// contains exactly the edges assigned to this host.
	Local *graph.Graph
	// GlobalID maps local -> global vertex IDs (sorted ascending).
	GlobalID []uint32
	// IsMaster reports, per local ID, whether this host holds the
	// vertex's master proxy.
	IsMaster []bool
}

// LocalID returns the local ID of global vertex g and whether the
// vertex has a proxy on this host: a binary search of GlobalID.
func (p *Part) LocalID(g uint32) (uint32, bool) {
	l, ok := slices.BinarySearch(p.GlobalID, g)
	return uint32(l), ok
}

// NumProxies returns the number of proxies (local vertices) on the host.
func (p *Part) NumProxies() int { return len(p.GlobalID) }

// Partitioning is a complete assignment of a graph to hosts.
type Partitioning struct {
	NumHosts int
	Parts    []*Part
	// MasterOf maps every global vertex to its master host.
	MasterOf []int32
	// MasterLocal maps every global vertex to its local ID on its
	// master host.
	MasterLocal []uint32
	// Policy names the strategy, as ByName takes it.
	Policy string
}

// masters splits vertices into `hosts` contiguous blocks with roughly
// equal total out-degree (the usual degree-balanced block partition)
// and returns each vertex's block: its master host.
func masters(g *graph.Graph, hosts int) []int32 {
	n := g.NumVertices()
	total := g.NumEdges() + int64(n) // +1 per vertex so empty vertices spread too
	target := total / int64(hosts)
	masterOf := make([]int32, n)
	var acc int64
	b := 0
	for v := range masterOf {
		masterOf[v] = int32(b)
		acc += int64(g.OutDegree(uint32(v))) + 1
		if b < hosts-1 && acc >= target*int64(b+1) {
			b++
		}
	}
	return masterOf
}

// assemble builds Parts from an edge->host assignment: edge (u, v)
// goes to host row[u] + col[v]. A vertex has a proxy on its master host
// and on the host of every edge it touches. Three linear passes build
// every part:
//  1. sweeping v upward, count each host's proxies;
//  2. sweep again, appending v once to each of its hosts' GlobalID,
//     which therefore comes out ascending (the append on v's master
//     gives MasterLocal); count each proxy's local out-degree and,
//     meeting edge (u, v) among v's in-edges, record v's local ID on
//     the edge's host;
//  3. walk the edges in CSR order and deal those IDs to their hosts.
//
// Local IDs rise with global IDs, so each host's edges, taken in g's
// CSR order, already form a canonical local CSR: no sort, no map and no
// graph.Builder.
func assemble(g *graph.Graph, hosts int, masterOf, row, col []int32, policy string) *Partitioning {
	n := g.NumVertices()
	count := make([]int, hosts)
	seen := make([]uint32, hosts) // 1 + the last vertex counted on h
	for v := range n {
		mark := uint32(v) + 1
		if h := masterOf[v]; seen[h] != mark {
			seen[h] = mark
			count[h]++
		}
		for _, w := range g.OutNeighbors(uint32(v)) {
			if h := row[v] + col[w]; seen[h] != mark {
				seen[h] = mark
				count[h]++
			}
		}
		for _, u := range g.InNeighbors(uint32(v)) {
			if h := row[u] + col[v]; seen[h] != mark {
				seen[h] = mark
				count[h]++
			}
		}
	}
	ids := make([][]uint32, hosts)
	// offsets[h] holds a leading 0, then each proxy's local out-degree,
	// summed into the local CSR offsets after the second pass.
	offsets := make([][]int64, hosts)
	for h, c := range count {
		ids[h] = make([]uint32, 0, c)
		offsets[h] = make([]int64, 1, c+1)
	}
	proxy := func(h int32, v uint32) uint32 {
		if k := len(ids[h]); k > 0 && ids[h][k-1] == v {
			return uint32(k - 1)
		}
		ids[h] = append(ids[h], v)
		offsets[h] = append(offsets[h], 0)
		return uint32(len(ids[h]) - 1)
	}
	// next[u] is the CSR index of u's first out-edge the sweep has not
	// reached: u's targets rise, so the sweep meets them in row order.
	next := make([]int64, n)
	for u := 1; u < n; u++ {
		next[u] = next[u-1] + int64(g.OutDegree(uint32(u-1)))
	}
	target := make([]uint32, g.NumEdges()) // per CSR edge: its target's local ID on its host
	masterLocal := make([]uint32, n)
	for v := range n {
		gv := uint32(v)
		masterLocal[v] = proxy(masterOf[v], gv)
		for _, w := range g.OutNeighbors(gv) {
			h := row[v] + col[w]
			offsets[h][proxy(h, gv)+1]++
		}
		for _, u := range g.InNeighbors(gv) {
			target[next[u]] = proxy(row[u]+col[v], gv)
			next[u]++
		}
	}

	dsts := make([][]uint32, hosts)
	for h, off := range offsets {
		for l := 1; l < len(off); l++ {
			off[l] += off[l-1]
		}
		dsts[h] = make([]uint32, 0, off[len(off)-1])
	}
	e := 0
	for u := range n {
		for _, w := range g.OutNeighbors(uint32(u)) {
			h := row[u] + col[w]
			dsts[h] = append(dsts[h], target[e])
			e++
		}
	}

	pt := &Partitioning{NumHosts: hosts, MasterOf: masterOf, MasterLocal: masterLocal, Policy: policy}
	for h := 0; h < hosts; h++ {
		local, err := graph.FromCSR(offsets[h], dsts[h])
		if err != nil {
			panic(fmt.Sprintf("partition: host %d: %v", h, err))
		}
		isMaster := make([]bool, len(ids[h]))
		for l, v := range ids[h] {
			isMaster[l] = masterOf[v] == int32(h)
		}
		pt.Parts = append(pt.Parts, &Part{Host: h, Local: local, GlobalID: ids[h], IsMaster: isMaster})
	}
	return pt
}

// EdgeCut partitions g across hosts with a 1D outgoing edge-cut.
func EdgeCut(g *graph.Graph, hosts int) *Partitioning {
	validate(g, hosts)
	masterOf := masters(g, hosts)
	// Edge (u, v) goes to u's master.
	return assemble(g, hosts, masterOf, masterOf, make([]int32, len(masterOf)), edgeCutName)
}

// CartesianCut partitions g across hosts with a 2D Cartesian
// vertex-cut. The host grid is rows×cols with rows*cols == hosts,
// chosen as close to square as possible.
func CartesianCut(g *graph.Graph, hosts int) *Partitioning {
	validate(g, hosts)
	_, cols := gridShape(hosts)
	masterOf := masters(g, hosts)
	// Edge (u, v) goes to the host in the row of u's master and the
	// column of v's.
	row := make([]int32, len(masterOf))
	col := make([]int32, len(masterOf))
	for v, m := range masterOf {
		row[v], col[v] = m/int32(cols)*int32(cols), m%int32(cols)
	}
	return assemble(g, hosts, masterOf, row, col, cartesianName)
}

// The policy names ByName takes and Partitioning.Policy reports.
const (
	edgeCutName   = "edge-cut"
	cartesianName = "cartesian"
)

// ByName partitions g across hosts with the policy named name:
// "edge-cut" (EdgeCut) or "cartesian" (CartesianCut).
func ByName(g *graph.Graph, name string, hosts int) (*Partitioning, error) {
	if err := CheckName(name); err != nil {
		return nil, err
	}
	if name == cartesianName {
		return CartesianCut(g, hosts), nil
	}
	return EdgeCut(g, hosts), nil
}

// CheckName reports an error unless ByName knows the policy name, so a
// caller can refuse a bad name before it has a graph to cut.
func CheckName(name string) error {
	if name != edgeCutName && name != cartesianName {
		return fmt.Errorf("unknown partition %q (want %s or %s)", name, edgeCutName, cartesianName)
	}
	return nil
}

// gridShape returns the most square rows×cols factorization of hosts.
func gridShape(hosts int) (rows, cols int) {
	rows = 1
	for f := 1; f*f <= hosts; f++ {
		if hosts%f == 0 {
			rows = f
		}
	}
	return rows, hosts / rows
}

func validate(g *graph.Graph, hosts int) {
	if hosts <= 0 {
		panic(fmt.Sprintf("partition: invalid host count %d", hosts))
	}
	if g.NumVertices() == 0 {
		panic("partition: empty graph")
	}
}
