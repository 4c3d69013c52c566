package graph

import (
	"math/rand"
	"reflect"
	"testing"
)

func TestComponents(t *testing.T) {
	g := New()
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(4, 5)
	g.AddNode(7)
	want := [][]int{{0, 1, 2}, {4, 5}, {7}}
	if got := g.Components(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Components() = %v, want %v", got, want)
	}
}

func TestComponentsEmptyGraph(t *testing.T) {
	if got := New().Components(); got != nil {
		t.Fatalf("Components() on empty graph = %v, want nil", got)
	}
}

func TestComponentsConnectedGraph(t *testing.T) {
	g := New()
	for v := 0; v < 5; v++ {
		g.AddEdge(v, (v+1)%6)
	}
	comps := g.Components()
	if len(comps) != 1 {
		t.Fatalf("cycle graph has %d components, want 1", len(comps))
	}
	if want := []int{0, 1, 2, 3, 4, 5}; !reflect.DeepEqual(comps[0], want) {
		t.Fatalf("component = %v, want %v", comps[0], want)
	}
}

func TestComponentsOfSubgraph(t *testing.T) {
	// A path 0-1-2-3-4: dropping vertex 2 splits the induced subgraph in
	// two.
	g := New()
	for v := 0; v < 4; v++ {
		g.AddEdge(v, v+1)
	}
	sub := g.Subgraph([]int{0, 1, 3, 4})
	want := [][]int{{0, 1}, {3, 4}}
	if got := sub.Components(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Subgraph Components() = %v, want %v", got, want)
	}
}

// TestComponentsPropertyRandom checks the defining properties on random
// graphs: components partition the vertex set, each component's induced
// subgraph is connected, no edge crosses components, vertices ascend
// within a component, and components ascend by their minimum.
func TestComponentsPropertyRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(30)
		g := New()
		for v := 0; v < n; v++ {
			g.AddNode(v)
		}
		for i := 0; i < n; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				g.AddEdge(u, v)
			}
		}
		comps := g.Components()
		seen := make(map[int]int) // vertex -> component index
		prevMin := -1
		for ci, comp := range comps {
			if len(comp) == 0 {
				t.Fatalf("trial %d: empty component %d", trial, ci)
			}
			if comp[0] <= prevMin {
				t.Fatalf("trial %d: components out of order: %v", trial, comps)
			}
			prevMin = comp[0]
			for i, v := range comp {
				if i > 0 && comp[i-1] >= v {
					t.Fatalf("trial %d: component %d not ascending: %v", trial, ci, comp)
				}
				if _, dup := seen[v]; dup {
					t.Fatalf("trial %d: vertex %d in two components", trial, v)
				}
				seen[v] = ci
			}
			if !g.Subgraph(comp).Connected() {
				t.Fatalf("trial %d: component %v not connected", trial, comp)
			}
		}
		if len(seen) != len(g.Nodes()) {
			t.Fatalf("trial %d: components cover %d vertices, graph has %d",
				trial, len(seen), len(g.Nodes()))
		}
		for _, e := range g.Edges() {
			if seen[e.U] != seen[e.V] {
				t.Fatalf("trial %d: edge %v crosses components", trial, e)
			}
		}
	}
}
