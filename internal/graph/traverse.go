package graph

// InfDist marks an unreachable vertex in distance arrays. It is the
// maximum uint32, so any finite distance compares smaller.
const InfDist = ^uint32(0)

// BFS computes single-source unweighted shortest-path distances from
// src over out-edges. dist[v] == InfDist when v is unreachable.
func (g *Graph) BFS(src uint32) []uint32 {
	n := g.NumVertices()
	dist := make([]uint32, n)
	for i := range dist {
		dist[i] = InfDist
	}
	dist[src] = 0
	queue := make([]uint32, 0, 64)
	queue = append(queue, src)
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		du := dist[u]
		for _, v := range g.OutNeighbors(u) {
			if dist[v] == InfDist {
				dist[v] = du + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// Eccentricity returns the largest finite BFS distance from src and
// the number of vertices reached.
func (g *Graph) Eccentricity(src uint32) (ecc uint32, reached int) {
	for _, d := range g.BFS(src) {
		if d == InfDist {
			continue
		}
		reached++
		if d > ecc {
			ecc = d
		}
	}
	return ecc, reached
}

// EstimateDiameter estimates the directed diameter the way the paper's
// Table 1 does: the maximum finite shortest-path distance observed from
// a set of sample sources.
func (g *Graph) EstimateDiameter(sources []uint32) uint32 {
	var best uint32
	for _, s := range sources {
		if ecc, _ := g.Eccentricity(s); ecc > best {
			best = ecc
		}
	}
	return best
}

// ReachableFrom returns the number of vertices reachable from src
// (including src).
func (g *Graph) ReachableFrom(src uint32) int {
	_, reached := g.Eccentricity(src)
	return reached
}

// IsWeaklyConnected reports whether the undirected version of g is
// connected. Empty graphs are trivially connected.
func (g *Graph) IsWeaklyConnected() bool {
	n := g.NumVertices()
	if n == 0 {
		return true
	}
	g.EnsureInEdges()
	seen := make([]bool, n)
	stack := []uint32{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range g.OutNeighbors(u) {
			if !seen[v] {
				seen[v] = true
				count++
				stack = append(stack, v)
			}
		}
		for _, v := range g.InNeighbors(u) {
			if !seen[v] {
				seen[v] = true
				count++
				stack = append(stack, v)
			}
		}
	}
	return count == n
}

// IsStronglyConnected reports whether every vertex reaches every other:
// a forward and a backward BFS from vertex 0 both reach all vertices.
func (g *Graph) IsStronglyConnected() bool {
	n := g.NumVertices()
	if n == 0 {
		return true
	}
	if g.ReachableFrom(0) != n {
		return false
	}
	return g.Transpose().ReachableFrom(0) == n
}
