package graph

// Unreachable is the distance reported by BFS for vertices that cannot be
// reached from the source.
const Unreachable = -1

// BFSDistances returns the unweighted shortest-path distance from src to
// every vertex slot of g: the result has length Cap() and is indexed by
// vertex id. Vertices not reachable from src (including absent ids) hold
// Unreachable.
func (g *Graph) BFSDistances(src int) []int {
	dist := make([]int, g.Cap())
	for i := range dist {
		dist[i] = Unreachable
	}
	if !g.HasNode(src) {
		return dist
	}
	dist[src] = 0
	queue := make([]int32, 1, g.NumNodes())
	queue[0] = int32(src)
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		dv := dist[v]
		for _, u := range g.adj[v] {
			if dist[u] == Unreachable {
				dist[u] = dv + 1
				queue = append(queue, u)
			}
		}
	}
	return dist
}

// BoundedBFS fills dist (length >= g.Cap(), pre-set to Unreachable on every
// slot it will touch) with distances from src up to maxDist hops, appending
// every reached vertex (src included) to touched. queue is scratch; both
// slices grow as needed and are returned for reuse. Callers reset the
// touched slots to Unreachable afterwards — that is O(reach), not O(n),
// which is what makes distance-bounded sweeps (the crosstalk-graph build)
// linear in reached volume rather than graph size.
func (g *Graph) BoundedBFS(src, maxDist int, dist []int32, queue, touched []int32) (q, t []int32) {
	queue = append(queue[:0], int32(src))
	touched = append(touched, int32(src))
	dist[src] = 0
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		dv := dist[v]
		if int(dv) >= maxDist {
			continue
		}
		for _, u := range g.adj[v] {
			if dist[u] == Unreachable {
				dist[u] = dv + 1
				queue = append(queue, u)
				touched = append(touched, u)
			}
		}
	}
	return queue, touched
}

// Distance returns the unweighted shortest-path distance between a and b,
// or Unreachable if no path exists.
func (g *Graph) Distance(a, b int) int {
	if !g.HasNode(a) || !g.HasNode(b) {
		return Unreachable
	}
	if a == b {
		return 0
	}
	dist := make([]int, g.Cap())
	for i := range dist {
		dist[i] = Unreachable
	}
	dist[a] = 0
	queue := make([]int32, 1, g.NumNodes())
	queue[0] = int32(a)
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, u := range g.adj[v] {
			if dist[u] == Unreachable {
				dist[u] = dist[v] + 1
				if int(u) == b {
					return dist[u]
				}
				queue = append(queue, u)
			}
		}
	}
	return Unreachable
}

// ShortestPath returns one shortest path from a to b inclusive of both
// endpoints, or nil if b is unreachable from a.
func (g *Graph) ShortestPath(a, b int) []int {
	if !g.HasNode(a) || !g.HasNode(b) {
		return nil
	}
	if a == b {
		return []int{a}
	}
	const unseen = int32(-2)
	prev := make([]int32, g.Cap())
	for i := range prev {
		prev[i] = unseen
	}
	prev[a] = int32(a)
	queue := make([]int32, 1, g.NumNodes())
	queue[0] = int32(a)
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		// Ascending neighbor order keeps routed circuits stable.
		for _, u := range g.adj[v] {
			if prev[u] != unseen {
				continue
			}
			prev[u] = v
			if int(u) == b {
				return reconstruct(prev, a, b)
			}
			queue = append(queue, u)
		}
	}
	return nil
}

func reconstruct(prev []int32, a, b int) []int {
	n := 1
	for v := b; v != a; v = int(prev[v]) {
		n++
	}
	path := make([]int, n)
	for i, v := n-1, b; ; i, v = i-1, int(prev[v]) {
		path[i] = v
		if v == a {
			break
		}
	}
	return path
}

// Connected reports whether g is connected (the empty graph counts as
// connected).
func (g *Graph) Connected() bool {
	return len(g.Components()) <= 1
}

// DistanceMatrix is the flat all-pairs BFS distance table of a graph:
// row-major n×n int32 storage indexed by vertex id.
type DistanceMatrix struct {
	stride int
	d      []int32
}

// At returns the distance from u to v (Unreachable when either id is
// absent or no path exists).
func (m *DistanceMatrix) At(u, v int) int {
	if u < 0 || v < 0 || u >= m.stride || v >= m.stride {
		return Unreachable
	}
	return int(m.d[u*m.stride+v])
}

// Stride returns the matrix dimension (the Cap() of the graph it was built
// from).
func (m *DistanceMatrix) Stride() int { return m.stride }

// Distances returns the graph's all-pairs distance matrix, built lazily on
// first use and cached until the next mutation — the same discipline as
// EdgeID. On an immutable (fully built) graph it is safe to call
// concurrently, and repeated callers (the routing hot path resolves every
// SWAP against it) share one allocation instead of re-running n BFS sweeps.
func (g *Graph) Distances() *DistanceMatrix {
	if d := g.dists.Load(); d != nil {
		return d
	}
	d := g.AllPairsDistances()
	g.dists.Store(d)
	return d
}

// AllPairsDistances computes BFS distances from every vertex into one flat
// Cap()×Cap() matrix, reusing a single queue across sources. Rows of absent
// vertices are all Unreachable.
func (g *Graph) AllPairsDistances() *DistanceMatrix {
	n := g.Cap()
	m := &DistanceMatrix{stride: n, d: make([]int32, n*n)}
	for i := range m.d {
		m.d[i] = Unreachable
	}
	queue := make([]int32, 0, g.NumNodes())
	for src := 0; src < n; src++ {
		if !g.HasNode(src) {
			continue
		}
		row := m.d[src*n : (src+1)*n]
		row[src] = 0
		queue = append(queue[:0], int32(src))
		for head := 0; head < len(queue); head++ {
			v := queue[head]
			dv := row[v]
			for _, u := range g.adj[v] {
				if row[u] == Unreachable {
					row[u] = dv + 1
					queue = append(queue, u)
				}
			}
		}
	}
	return m
}

// EdgeDistance returns the distance between two edges of g, defined (as in
// the paper, §IV-C) as the length of the shortest path connecting the two
// edges: 0 if they share a vertex, otherwise the minimum vertex distance
// between any pair of their endpoints. Returns Unreachable when the edges
// lie in different components.
func (g *Graph) EdgeDistance(e, f Edge) int {
	if e.SharesVertex(f) {
		return 0
	}
	best := Unreachable
	for _, a := range [2]int{e.U, e.V} {
		dist := g.BFSDistances(a)
		for _, b := range [2]int{f.U, f.V} {
			if b >= len(dist) {
				continue
			}
			if d := dist[b]; d != Unreachable && (best == Unreachable || d < best) {
				best = d
			}
		}
	}
	return best
}
