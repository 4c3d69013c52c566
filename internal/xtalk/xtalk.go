// Package xtalk constructs the crosstalk graph G_x^(d) of a device
// (§IV-C2, Algorithm 2): one vertex per coupler (edge of the connectivity
// graph G_c), with two vertices adjacent when the corresponding couplers
// either share a qubit or are connected by a path of length at most d. Two
// simultaneous two-qubit gates whose couplers are adjacent in G_x must be
// separated in frequency (different colors) or in time (different slices).
//
// Construction is distance-bounded: instead of the naive O(c²) all-pairs
// coupler loop over a full vertex-distance matrix, Build runs one bounded
// BFS (depth d) from each coupler's two endpoints and connects it to every
// coupler with an endpoint inside that ball — O(c · reach(d)) work, where
// reach(d) is constant on bounded-degree devices. Coupler ids are the
// device connectivity graph's dense edge ids (Edges() order), so the
// edge→vertex lookup is a binary search over a neighbor slice, not a map.
package xtalk

import (
	"fmt"
	"slices"

	"fastsc/internal/graph"
	"fastsc/internal/topology"
)

// Graph is the crosstalk graph of a device, with coupler-index vertices.
type Graph struct {
	// G has one vertex per coupler, indexed into Couplers.
	G *graph.Graph
	// Couplers maps vertex id -> connectivity-graph edge, sorted by (U,V).
	Couplers []graph.Edge
	// Distance is the crosstalk distance d used to build the graph
	// (d = 1 reproduces the paper's standard construction; §IV-C3
	// generalizes to larger d).
	Distance int
	// gc is the device connectivity graph; its dense EdgeID ordering is
	// exactly the Couplers ordering, which is what makes VertexOf a
	// map-free lookup.
	gc *graph.Graph
}

// Build constructs the distance-d crosstalk graph of dev. d must be >= 1.
//
//fastsc:hotpath the per-coupler bounded-BFS loop is the cache-miss cost of the xtalk region (BenchmarkXtalkBuild guards it); nothing in it may allocate a map or box
func Build(dev *topology.Device, d int) *Graph {
	if d < 1 {
		panic(fmt.Sprintf("xtalk: crosstalk distance must be >= 1, got %d", d))
	}
	gc := dev.Coupling
	couplers := gc.Edges()
	nc := len(couplers)
	nq := gc.Cap()

	// Incidence CSR: coupler ids attached to each qubit.
	incOff := make([]int32, nq+1)
	for _, e := range couplers {
		incOff[e.U+1]++
		incOff[e.V+1]++
	}
	for q := 0; q < nq; q++ {
		incOff[q+1] += incOff[q]
	}
	inc := make([]int32, 2*nc)
	fill := make([]int32, nq)
	for i, e := range couplers {
		inc[incOff[e.U]+fill[e.U]] = int32(i)
		fill[e.U]++
		inc[incOff[e.V]+fill[e.V]] = int32(i)
		fill[e.V]++
	}

	// Scratch reused across couplers: two bounded-BFS distance fields
	// (reset via touched lists), a seen stamp per candidate coupler, and
	// the per-coupler neighbor list.
	distA := make([]int32, nq)
	distB := make([]int32, nq)
	for q := range distA {
		distA[q] = graph.Unreachable
		distB[q] = graph.Unreachable
	}
	var queue, touchedA, touchedB []int32
	seen := make([]int32, nc)
	for i := range seen {
		seen[i] = -1
	}
	var nbrs []int32

	const far = int32(1 << 30) // strictly above any admissible bound
	distAt := func(dist []int32, q int) int32 {
		if d := dist[q]; d >= 0 {
			return d
		}
		return far
	}

	g := graph.NewDense(nc)
	for i := 0; i < nc; i++ {
		e := couplers[i]
		queue, touchedA = gc.BoundedBFS(e.U, d, distA, queue, touchedA[:0])
		queue, touchedB = gc.BoundedBFS(e.V, d, distB, queue, touchedB[:0])

		nbrs = nbrs[:0]
		for _, touched := range [2][]int32{touchedA, touchedB} {
			for _, w := range touched {
				for _, j := range inc[incOff[w]:incOff[w+1]] {
					if int(j) <= i || seen[j] == int32(i) {
						continue
					}
					seen[j] = int32(i)
					f := couplers[j]
					dij := min(
						min(distAt(distA, f.U), distAt(distA, f.V)),
						min(distAt(distB, f.U), distAt(distB, f.V)),
					)
					if int(dij) <= d {
						nbrs = append(nbrs, j)
					}
				}
			}
		}
		slices.Sort(nbrs)
		for _, j := range nbrs {
			g.AddEdge(i, int(j)) // ascending i then j: O(1) appends
		}

		for _, w := range touchedA {
			distA[w] = graph.Unreachable
		}
		for _, w := range touchedB {
			distB[w] = graph.Unreachable
		}
	}
	return &Graph{G: g, Couplers: couplers, Distance: d, gc: gc}
}

// Adjacent reports whether the couplers e and f are adjacent in the
// distance-d crosstalk graph Build(dev, d) — distinct couplers that share
// a qubit or have endpoints at most d hops apart — without building that
// graph. It walks at most d hops out from e's endpoints over the
// connectivity graph's adjacency slices and allocates nothing, so a caller
// that classifies a handful of coupler pairs (the noise evaluator) pays
// for those pairs, not for every coupler of the device.
//
//fastsc:hotpath the noise evaluator classifies every pair of simultaneous two-qubit gates through it; it must stay alloc-free
func Adjacent(dev *topology.Device, e, f graph.Edge, d int) bool {
	if e == f {
		return false
	}
	gc := dev.Coupling
	return withinHops(gc, e.U, f, d) || withinHops(gc, e.V, f, d)
}

// withinHops reports whether an endpoint of f lies at most d hops from q.
func withinHops(gc *graph.Graph, q int, f graph.Edge, d int) bool {
	if f.Has(q) {
		return true
	}
	if d == 0 {
		return false
	}
	for _, w := range gc.Adj(q) {
		if withinHops(gc, int(w), f, d-1) {
			return true
		}
	}
	return false
}

// VertexOf returns the crosstalk-graph vertex for the coupler between
// qubits a and b, and whether that coupler exists. Coupler ids equal the
// connectivity graph's dense edge ids, so this is a binary search, not a
// map probe.
func (x *Graph) VertexOf(a, b int) (int, bool) {
	if a == b {
		return 0, false
	}
	return x.gc.EdgeID(a, b)
}

// ConflictDegree returns, for the coupler (a,b), how many of the couplers in
// active are adjacent to it in the crosstalk graph. The noise-aware queueing
// scheduler postpones gates whose conflict degree is too high (§V-B6).
func (x *Graph) ConflictDegree(a, b int, active []graph.Edge) int {
	v, ok := x.VertexOf(a, b)
	if !ok {
		return 0
	}
	n := 0
	for _, e := range active {
		if w, ok := x.gc.EdgeID(e.U, e.V); ok && x.G.HasEdge(v, w) {
			n++
		}
	}
	return n
}

// ApproxSize reports the approximate in-memory footprint in bytes; the
// compile cache's size-aware eviction weighs crosstalk graphs by it.
func (x *Graph) ApproxSize() int {
	return x.G.ApproxSize() + 16*len(x.Couplers) + 48
}
