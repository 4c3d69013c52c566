package graph

// Components returns the connected components of g, one sorted vertex list
// per component. The decomposition is canonical: within a component the
// vertices are ascending, and components are ordered by their smallest
// vertex (the BFS scans roots in ascending id order, so each root is its
// component's minimum). An empty graph yields nil.
func (g *Graph) Components() [][]int {
	var comps [][]int
	visited := make([]bool, len(g.adj))
	var queue []int32
	for start := 0; start < len(g.adj); start++ {
		if !g.present[start] || visited[start] {
			continue
		}
		comp := []int{start}
		visited[start] = true
		queue = append(queue[:0], int32(start))
		for head := 0; head < len(queue); head++ {
			v := queue[head]
			for _, u := range g.adj[v] {
				if !visited[u] {
					visited[u] = true
					comp = append(comp, int(u))
					queue = append(queue, u)
				}
			}
		}
		sortInts(comp)
		comps = append(comps, comp)
	}
	return comps
}
