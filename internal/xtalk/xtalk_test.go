package xtalk

import (
	"slices"
	"testing"
	"testing/quick"

	"fastsc/internal/graph"
	"fastsc/internal/topology"
)

func TestBuildPanicsOnBadDistance(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Build with d=0 did not panic")
		}
	}()
	Build(topology.Grid(2, 2), 0)
}

func TestBuildLinearChain(t *testing.T) {
	// Path 0-1-2-3: couplers (0,1),(1,2),(2,3).
	// d=1: (0,1)-(1,2) share vertex; (0,1)-(2,3) at edge distance 1 -> also
	// adjacent. So the crosstalk graph is K3.
	x := Build(topology.Linear(4), 1)
	if x.G.NumNodes() != 3 {
		t.Fatalf("crosstalk vertices = %d, want 3", x.G.NumNodes())
	}
	if x.G.NumEdges() != 3 {
		t.Fatalf("crosstalk edges = %d, want 3 (K3)", x.G.NumEdges())
	}
}

func TestBuildLongerChainDistance(t *testing.T) {
	// Path of 6 qubits: couplers e0..e4. With d=1, e0=(0,1) conflicts with
	// e1 (shared) and e2 (distance 1) but NOT e3 (distance 2).
	x := Build(topology.Linear(6), 1)
	v0, _ := x.VertexOf(0, 1)
	v3, _ := x.VertexOf(3, 4)
	if x.G.HasEdge(v0, v3) {
		t.Fatal("distance-2 couplers should not conflict at d=1")
	}
	// With d=2 they do.
	x2 := Build(topology.Linear(6), 2)
	if !x2.G.HasEdge(v0, v3) {
		t.Fatal("distance-2 couplers should conflict at d=2")
	}
}

func TestCrosstalkGraphDenserWithDistance(t *testing.T) {
	dev := topology.Grid(4, 4)
	m1 := Build(dev, 1).G.NumEdges()
	m2 := Build(dev, 2).G.NumEdges()
	if m2 <= m1 {
		t.Fatalf("d=2 crosstalk graph should be denser: %d <= %d", m2, m1)
	}
}

func TestMeshCrosstalkColoring(t *testing.T) {
	// The paper (Fig 7) colors the 2-D mesh crosstalk graph with 8 colors
	// (the minimum). Welsh–Powell is approximate; it must produce a valid
	// coloring with at least 8 and not absurdly many colors.
	for _, n := range []int{4, 5} {
		x := Build(topology.Grid(n, n), 1)
		c := graph.WelshPowell(x.G)
		if !c.Valid(x.G) {
			t.Fatalf("invalid coloring of %dx%d crosstalk graph", n, n)
		}
		k := c.NumColors()
		if k < 8 {
			t.Fatalf("%dx%d mesh crosstalk graph colored with %d < 8 colors; paper proves 8 is minimum", n, n, k)
		}
		if k > 12 {
			t.Fatalf("greedy used %d colors on %dx%d; expected near-optimal (8-12)", k, n, n)
		}
	}
}

func TestCrosstalkLocalized(t *testing.T) {
	// §IV-C2: crosstalk is localized — the max degree of the crosstalk
	// graph does not grow with mesh size.
	d5 := Build(topology.Grid(5, 5), 1).G.MaxDegree()
	d7 := Build(topology.Grid(7, 7), 1).G.MaxDegree()
	d9 := Build(topology.Grid(9, 9), 1).G.MaxDegree()
	if d7 != d9 || d5 > d7 {
		t.Fatalf("crosstalk degree should saturate: %d, %d, %d", d5, d7, d9)
	}
}

func TestVertexOf(t *testing.T) {
	x := Build(topology.Grid(2, 2), 1)
	if _, ok := x.VertexOf(0, 1); !ok {
		t.Fatal("coupler (0,1) missing")
	}
	if _, ok := x.VertexOf(0, 3); ok {
		t.Fatal("diagonal (0,3) should not be a coupler")
	}
	// Order-insensitive.
	v1, _ := x.VertexOf(0, 1)
	v2, _ := x.VertexOf(1, 0)
	if v1 != v2 {
		t.Fatal("VertexOf should normalize qubit order")
	}
}

func TestConflictDegree(t *testing.T) {
	dev := topology.Grid(2, 3)
	x := Build(dev, 1)
	active := []graph.Edge{graph.NewEdge(4, 5)}
	if d := x.ConflictDegree(0, 1, active); d != 1 {
		t.Fatalf("ConflictDegree = %d, want 1", d)
	}
	if d := x.ConflictDegree(0, 1, nil); d != 0 {
		t.Fatalf("ConflictDegree with no active = %d", d)
	}
}

func TestNeighborsOfSymmetric(t *testing.T) {
	x := Build(topology.Grid(3, 3), 1)
	for v := 0; v < x.G.NumNodes(); v++ {
		for _, w := range x.G.Adj(v) {
			if !slices.Contains(x.G.Adj(int(w)), int32(v)) {
				t.Fatalf("crosstalk adjacency not symmetric: %v -> %v", x.Couplers[v], x.Couplers[w])
			}
		}
	}
}

// Property: the crosstalk graph always contains the line graph (every
// shared-vertex pair is adjacent), and adjacency is monotone in d.
func TestCrosstalkContainsLineGraphProperty(t *testing.T) {
	prop := func(rRaw, cRaw uint8) bool {
		rows := int(rRaw%4) + 2
		cols := int(cRaw%4) + 2
		dev := topology.Grid(rows, cols)
		x1 := Build(dev, 1)
		lg, _ := graph.LineGraph(dev.Coupling)
		for _, e := range lg.Edges() {
			if !x1.G.HasEdge(e.U, e.V) {
				return false
			}
		}
		x2 := Build(dev, 2)
		for _, e := range x1.G.Edges() {
			if !x2.G.HasEdge(e.U, e.V) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
