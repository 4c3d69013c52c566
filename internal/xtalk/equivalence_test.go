package xtalk

// Construction-equivalence tests: the distance-bounded BFS build must
// produce exactly the crosstalk graph the original algorithm produced —
// line graph plus every coupler pair at edge distance <= d, computed from
// a full all-pairs distance matrix. The reference below is that original
// O(c²) construction, kept verbatim (modulo the flat distance matrix API).

import (
	"testing"

	"fastsc/internal/graph"
	"fastsc/internal/topology"
)

// referenceBuild is the pre-flat-core Build: line graph, then an all-pairs
// probe of every coupler pair.
func referenceBuild(dev *topology.Device, d int) *graph.Graph {
	gc := dev.Coupling
	lg, couplers := graph.LineGraph(gc)
	dist := gc.AllPairsDistances()
	edgeDist := func(e, f graph.Edge) int {
		best := graph.Unreachable
		for _, a := range [2]int{e.U, e.V} {
			for _, b := range [2]int{f.U, f.V} {
				if dd := dist.At(a, b); dd != graph.Unreachable && (best == graph.Unreachable || dd < best) {
					best = dd
				}
			}
		}
		return best
	}
	for i := 0; i < len(couplers); i++ {
		for j := i + 1; j < len(couplers); j++ {
			if lg.HasEdge(i, j) {
				continue // already adjacent (shared vertex)
			}
			if dd := edgeDist(couplers[i], couplers[j]); dd != graph.Unreachable && dd <= d {
				lg.AddEdge(i, j)
			}
		}
	}
	return lg
}

func sameGraph(t *testing.T, label string, got, want *graph.Graph) {
	t.Helper()
	if got.NumNodes() != want.NumNodes() || got.NumEdges() != want.NumEdges() {
		t.Fatalf("%s: n=%d m=%d, reference n=%d m=%d",
			label, got.NumNodes(), got.NumEdges(), want.NumNodes(), want.NumEdges())
	}
	ge, we := got.Edges(), want.Edges()
	for i := range we {
		if ge[i] != we[i] {
			t.Fatalf("%s: edge %d is %v, reference %v", label, i, ge[i], we[i])
		}
	}
}

// equivalenceDevices are the device families the paper evaluates —
// meshes, linear chains/rings, and 1-D/2-D express cubes.
func equivalenceDevices() []*topology.Device {
	return []*topology.Device{
		topology.Grid(3, 3),
		topology.Grid(4, 5),
		topology.Grid(5, 5),
		topology.Linear(9),
		topology.Ring(8),
		topology.Express1D(12, 3),
		topology.Express1D(10, 2),
		topology.Express2D(4, 4, 2),
		topology.Express2D(5, 4, 3),
	}
}

// TestBuildMatchesAllPairsReference checks the BFS construction against the
// all-pairs reference on equivalenceDevices for d in {1,2,3}.
func TestBuildMatchesAllPairsReference(t *testing.T) {
	for _, dev := range equivalenceDevices() {
		for d := 1; d <= 3; d++ {
			got := Build(dev, d)
			want := referenceBuild(dev, d)
			sameGraph(t, dev.Name+"/d="+string(rune('0'+d)), got.G, want)
			// Coupler indexing must match the device edge enumeration.
			for id, e := range dev.Edges() {
				if got.Couplers[id] != e {
					t.Fatalf("%s: coupler %d is %v, want %v", dev.Name, id, got.Couplers[id], e)
				}
				if v, ok := got.VertexOf(e.U, e.V); !ok || v != id {
					t.Fatalf("%s: VertexOf(%v) = %d,%v, want %d", dev.Name, e, v, ok, id)
				}
			}
		}
	}
}

// TestAdjacentMatchesBuild checks the point query against the built
// graph: for d in {1,2,3}, Adjacent holds for exactly the coupler pairs
// Build(dev, d) connects (never for a coupler and itself), including
// across the components of a disconnected device.
func TestAdjacentMatchesBuild(t *testing.T) {
	devices := append(equivalenceDevices(), topology.FromEdges("two-chains", 6, []graph.Edge{
		graph.NewEdge(0, 1), graph.NewEdge(1, 2),
		graph.NewEdge(3, 4), graph.NewEdge(4, 5),
	}))
	for _, dev := range devices {
		couplers := dev.Edges()
		for d := 1; d <= 3; d++ {
			x := Build(dev, d)
			for i, e := range couplers {
				for j, f := range couplers {
					if got, want := Adjacent(dev, e, f, d), x.G.HasEdge(i, j); got != want {
						t.Fatalf("%s d=%d: Adjacent(%v, %v) = %v, Build adjacency %v", dev.Name, d, e, f, got, want)
					}
				}
			}
		}
	}
}

// TestBuildDisconnectedDevice checks the BFS construction on a device with
// two components: couplers in different components must never conflict.
func TestBuildDisconnectedDevice(t *testing.T) {
	// Two 3-qubit chains: qubits 0-1-2 and 3-4-5, no bridge.
	dev := topology.FromEdges("two-chains", 6, []graph.Edge{
		graph.NewEdge(0, 1), graph.NewEdge(1, 2),
		graph.NewEdge(3, 4), graph.NewEdge(4, 5),
	})
	for d := 1; d <= 3; d++ {
		got := Build(dev, d)
		want := referenceBuild(dev, d)
		sameGraph(t, "two-chains", got.G, want)
		v01, _ := got.VertexOf(0, 1)
		v34, _ := got.VertexOf(3, 4)
		if got.G.HasEdge(v01, v34) {
			t.Fatal("couplers in different components must not conflict")
		}
	}
}
