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
	"sort"

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

	localID map[uint32]uint32
}

// LocalID returns the local ID of global vertex g and whether the
// vertex has a proxy on this host.
func (p *Part) LocalID(g uint32) (uint32, bool) {
	l, ok := p.localID[g]
	return l, ok
}

// NumProxies returns the number of proxies (local vertices) on the host.
func (p *Part) NumProxies() int { return len(p.GlobalID) }

// Partitioning is a complete assignment of a graph to hosts.
type Partitioning struct {
	NumHosts int
	Parts    []*Part
	// MasterOf maps every global vertex to its master host.
	MasterOf []int32
	// Policy names the strategy, as ByName takes it.
	Policy string
}

// blocks splits vertices into `hosts` contiguous ranges with roughly
// equal total out-degree (the usual degree-balanced block partition).
// Returns the exclusive upper bound of each block.
func blocks(g *graph.Graph, hosts int) []uint32 {
	n := g.NumVertices()
	total := g.NumEdges() + int64(n) // +1 per vertex so empty vertices spread too
	bounds := make([]uint32, hosts)
	target := total / int64(hosts)
	var acc int64
	b := 0
	for v := 0; v < n && b < hosts-1; v++ {
		acc += int64(g.OutDegree(uint32(v))) + 1
		if acc >= target*int64(b+1) {
			bounds[b] = uint32(v + 1)
			b++
		}
	}
	for ; b < hosts; b++ {
		bounds[b] = uint32(n)
	}
	return bounds
}

func blockOf(bounds []uint32, v uint32) int {
	lo, hi := 0, len(bounds)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if v < bounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// assemble builds Parts from an edge->host assignment.
func assemble(g *graph.Graph, hosts int, masterOf []int32, hostOf func(u, v uint32) int, policy string) *Partitioning {
	n := g.NumVertices()
	edgeLists := make([][][2]uint32, hosts)
	g.Edges(func(u, v uint32) {
		h := hostOf(u, v)
		edgeLists[h] = append(edgeLists[h], [2]uint32{u, v})
	})

	// Proxy sets: endpoints of local edges plus the host's masters (so
	// every vertex has at least one proxy even when isolated).
	proxySets := make([]map[uint32]bool, hosts)
	for h := range proxySets {
		proxySets[h] = make(map[uint32]bool)
		for _, e := range edgeLists[h] {
			proxySets[h][e[0]] = true
			proxySets[h][e[1]] = true
		}
	}
	for v := 0; v < n; v++ {
		proxySets[masterOf[v]][uint32(v)] = true
	}

	pt := &Partitioning{NumHosts: hosts, MasterOf: masterOf, Policy: policy}
	for h := 0; h < hosts; h++ {
		ids := make([]uint32, 0, len(proxySets[h]))
		for v := range proxySets[h] {
			ids = append(ids, v)
		}
		sortU32(ids)
		localID := make(map[uint32]uint32, len(ids))
		for l, v := range ids {
			localID[v] = uint32(l)
		}
		b := graph.NewBuilder(len(ids))
		for _, e := range edgeLists[h] {
			b.AddEdge(localID[e[0]], localID[e[1]])
		}
		isMaster := make([]bool, len(ids))
		for l, v := range ids {
			isMaster[l] = masterOf[v] == int32(h)
		}
		pt.Parts = append(pt.Parts, &Part{
			Host:     h,
			Local:    b.Build(),
			GlobalID: ids,
			IsMaster: isMaster,
			localID:  localID,
		})
	}
	return pt
}

func sortU32(a []uint32) {
	sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
}

// EdgeCut partitions g across hosts with a 1D outgoing edge-cut.
func EdgeCut(g *graph.Graph, hosts int) *Partitioning {
	validate(g, hosts)
	bounds := blocks(g, hosts)
	n := g.NumVertices()
	masterOf := make([]int32, n)
	for v := 0; v < n; v++ {
		masterOf[v] = int32(blockOf(bounds, uint32(v)))
	}
	return assemble(g, hosts, masterOf, func(u, v uint32) int {
		return int(masterOf[u])
	}, edgeCutName)
}

// CartesianCut partitions g across hosts with a 2D Cartesian
// vertex-cut. The host grid is rows×cols with rows*cols == hosts,
// chosen as close to square as possible.
func CartesianCut(g *graph.Graph, hosts int) *Partitioning {
	validate(g, hosts)
	rows, cols := gridShape(hosts)
	bounds := blocks(g, hosts)
	n := g.NumVertices()
	masterOf := make([]int32, n)
	for v := 0; v < n; v++ {
		masterOf[v] = int32(blockOf(bounds, uint32(v)))
	}
	return assemble(g, hosts, masterOf, func(u, v uint32) int {
		r := int(masterOf[u]) / cols
		c := int(masterOf[v]) % cols
		_ = rows
		return r*cols + c
	}, cartesianName)
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
