package bench

import (
	"fmt"
	"reflect"
	"testing"

	"fastsc/internal/circuit"
	"fastsc/internal/topology"
)

// Equivalence tests pinning circuit.Analysis to the reference
// implementations on the paper's benchmark families (QAOA, XEB, Ising —
// the satellite workloads of the Fig 9 sweep), both as generated and after
// native decomposition, which is what the schedulers actually analyze.
func TestAnalysisMatchesReferenceOnBenchmarks(t *testing.T) {
	grid := topology.Grid(4, 4)
	cases := []struct {
		name string
		c    *circuit.Circuit
	}{
		{"qaoa(9)", QAOA(9, 7)},
		{"qaoa(16)", QAOA(16, 3)},
		{"ising(8)", Ising(8, 0)},
		{"ising(16)", Ising(16, 4)},
		{"xeb(16,5)", XEB(grid, 5, 7)},
		{"xeb(16,10)", XEB(grid, 10, 11)},
		{"bv(9)", BV(9, 5)},
		{"qgan(12)", QGAN(12, 3, 9)},
	}
	for _, tc := range cases {
		for _, variant := range []struct {
			suffix string
			c      *circuit.Circuit
		}{
			{"", tc.c},
			{"/decomposed", circuit.Decompose(tc.c, circuit.Hybrid)},
		} {
			t.Run(tc.name+variant.suffix, func(t *testing.T) {
				c := variant.c
				a := circuit.Analyze(c)
				if got, want := a.Layers(), c.ASAPLayers(); !reflect.DeepEqual(got, want) {
					t.Fatalf("Analysis layers diverge from ASAPLayers (depth %d vs %d)",
						a.Depth(), len(want))
				}
				crit := c.Criticality()
				acrit := a.Criticality()
				for i := range crit {
					if int(acrit[i]) != crit[i] {
						t.Fatalf("criticality[%d] = %d, reference %d", i, acrit[i], crit[i])
					}
				}
				// Greedy frontier drain must reproduce the ASAP layers
				// (ready order per round = one ASAP layer, ascending).
				f := a.NewFrontier()
				layer := 0
				for !f.Done() {
					ready := append([]int(nil), f.Ready()...)
					if !reflect.DeepEqual(ready, a.Layers()[layer]) {
						t.Fatalf("frontier round %d = %v, ASAP layer %v", layer, ready, a.Layers()[layer])
					}
					for _, idx := range ready {
						f.Issue(idx)
					}
					layer++
				}
				if layer != a.Depth() {
					t.Fatalf("frontier drained in %d rounds, depth %d", layer, a.Depth())
				}
			})
		}
	}
}

// TestAnalysisSignatureDistinguishesBenchmarks checks no two distinct
// benchmark circuits share a content signature (the circ cache key).
func TestAnalysisSignatureDistinguishesBenchmarks(t *testing.T) {
	grid := topology.Grid(4, 4)
	seen := make(map[string]string)
	for i, c := range []*circuit.Circuit{
		QAOA(9, 7), QAOA(9, 8), QAOA(16, 3), Ising(8, 0), Ising(16, 4),
		XEB(grid, 5, 7), XEB(grid, 5, 8), BV(9, 5), QGAN(12, 3, 9),
	} {
		name := fmt.Sprintf("case-%d", i)
		sig := c.Signature()
		if prev, dup := seen[sig]; dup {
			t.Fatalf("%s and %s share signature %s", prev, name, sig)
		}
		seen[sig] = name
	}
}
