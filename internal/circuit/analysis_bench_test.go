package circuit

import (
	"fmt"
	"testing"
)

// brickwork builds the scheduler-shaped workload for the analysis
// benchmarks: `layers` rounds of single-qubit rotations followed by
// even/odd nearest-neighbor entanglers — the structure of Ising/QGAN/XEB
// circuits after routing.
func brickwork(n, layers int) *Circuit {
	c := New(n)
	for l := 0; l < layers; l++ {
		for q := 0; q < n; q++ {
			c.RX(q, 0.3)
		}
		for parity := 0; parity < 2; parity++ {
			for q := parity; q+1 < n; q += 2 {
				c.CZ(q, q+1)
			}
		}
	}
	return c
}

// BenchmarkCircuitAnalysis measures Analyze — the one-time cost every
// strategy used to pay per compile (ASAP layers + criticality + per-qubit
// streams) and now pays once per circuit through the compile cache.
func BenchmarkCircuitAnalysis(b *testing.B) {
	for _, size := range []struct{ n, layers int }{{16, 16}, {81, 20}} {
		c := brickwork(size.n, size.layers)
		b.Run(fmt.Sprintf("brickwork-%dq-%dl", size.n, size.layers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Analyze(c)
			}
		})
	}
}

// BenchmarkFrontier measures a full dependency-ordered drain of a circuit
// through the CSR frontier — the inner loop of every scheduling strategy.
// allocs/op is the headline number: the map-based Ready() allocated a map
// plus a slice per round; the view over the Analysis allocates nothing in
// steady state.
func BenchmarkFrontier(b *testing.B) {
	for _, size := range []struct{ n, layers int }{{16, 16}, {81, 20}} {
		c := brickwork(size.n, size.layers)
		a := Analyze(c)
		b.Run(fmt.Sprintf("drain-%dq-%dl", size.n, size.layers), func(b *testing.B) {
			f := a.NewFrontier()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.Reset()
				for !f.Done() {
					for _, idx := range f.Ready() {
						f.Issue(idx)
					}
				}
			}
		})
	}
}
