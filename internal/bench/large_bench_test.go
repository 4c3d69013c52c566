package bench_test

import (
	"math/rand"
	"testing"

	"fastsc/internal/circuit"
	"fastsc/internal/compile"
	"fastsc/internal/core"
	"fastsc/internal/expt"
	"fastsc/internal/phys"
	"fastsc/internal/schedule"
)

// largeCircuit builds one deep 100-qubit workload for the intra-circuit
// parallelism benchmark: a randomized native circuit on a 10×10 grid whose
// two-qubit gates land on random couplers. Unlike the tiled XEB patterns,
// almost every slice has a distinct scattered active set, so the compile is
// dominated by whole-slice cache misses — the path the component fan-out
// accelerates. The seed is fixed: both benchmark
// variants compile the identical circuit.
func largeCircuit(sys *phys.System) *circuit.Circuit {
	rng := rand.New(rand.NewSource(7))
	edges := sys.Device.Coupling.Edges()
	n := sys.Device.Qubits
	c := circuit.New(n)
	for i := 0; i < 6000; i++ {
		switch rng.Intn(4) {
		case 0:
			c.H(rng.Intn(n))
		case 1:
			c.RZ(rng.Intn(n), rng.Float64())
		default:
			e := edges[rng.Intn(len(edges))]
			c.CNOT(e.U, e.V)
		}
	}
	return c
}

// BenchmarkLargeCircuitCompile measures ColorDynamic on one deep
// 100-qubit circuit — the intra-circuit parallelism case, where batch-level
// parallelism cannot help because there is only one job:
//
//   - serial: Workers=1, so the component fan-out runs inline and the SMT
//     probes evaluate serially — the pre-parallelism compilation path.
//   - parallel: Workers=GOMAXPROCS; independent slice components solve
//     concurrently.
//
// Both variants start every iteration from a cold cache and produce
// byte-identical schedules (pinned by TestParallelCompilationMatchesSerialReference).
func BenchmarkLargeCircuitCompile(b *testing.B) {
	sys := expt.GridSystem(100)
	circ := largeCircuit(sys)
	run := func(b *testing.B, workers int) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ctx := compile.NewContext(workers)
			if _, err := (schedule.ColorDynamic{}).Compile(ctx, circ, sys, schedule.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("serial", func(b *testing.B) { run(b, 1) })
	b.Run("parallel", func(b *testing.B) { run(b, 0) })
}

// BenchmarkLargeCircuitBatch is the same workload through the engine (the
// daemon's single-large-request path), where core-level pre-stages
// (analysis, routing) run ahead of the schedule loop.
func BenchmarkLargeCircuitBatch(b *testing.B) {
	sys := expt.GridSystem(100)
	circ := largeCircuit(sys)
	job := []core.BatchJob{{Key: "large", Circuit: circ, System: sys, Strategy: "ColorDynamic"}}
	run := func(b *testing.B, workers int) {
		for i := 0; i < b.N; i++ {
			ctx := compile.NewContext(workers)
			if _, err := core.BatchCollect(ctx, job); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("serial", func(b *testing.B) { run(b, 1) })
	b.Run("parallel", func(b *testing.B) { run(b, 0) })
}
