package compile_test

import (
	"fmt"
	"math/rand"
	"testing"

	"fastsc/internal/bench"
	"fastsc/internal/circuit"
	"fastsc/internal/compile"
	"fastsc/internal/graph"
	"fastsc/internal/mapping"
	"fastsc/internal/phys"
	"fastsc/internal/schedule"
)

// routedOnto places a logical circuit along the device snake so every
// two-qubit gate lands on a coupler.
func routedOnto(t *testing.T, c *circuit.Circuit, sys *phys.System) *circuit.Circuit {
	t.Helper()
	res, err := mapping.Route(c, sys.Device,
		mapping.FromOrder(c.NumQubits, mapping.SnakeOrder(sys.Device), sys.Device.Qubits))
	if err != nil {
		t.Fatal(err)
	}
	return res.Routed
}

// randomNativeCircuit builds a random circuit whose two-qubit gates all land
// on couplers of a square-grid device, mixing sparse and dense slices so the
// active subgraphs span connected and scattered shapes.
func randomNativeCircuit(dev interface {
	Edges() []graph.Edge
}, nQubits int, nGates int, seed int64) *circuit.Circuit {
	rng := rand.New(rand.NewSource(seed))
	edges := dev.Edges()
	c := circuit.New(nQubits)
	for i := 0; i < nGates; i++ {
		switch rng.Intn(4) {
		case 0:
			c.H(rng.Intn(nQubits))
		case 1:
			c.RZ(rng.Intn(nQubits), rng.Float64())
		default:
			e := edges[rng.Intn(len(edges))]
			c.CNOT(e.U, e.V)
		}
	}
	return c
}

// TestParallelCompilationMatchesSerialReference is the determinism
// contract of the cache: compiling with a multi-worker cached Context must
// produce schedules byte-identical to the zero-Context compile, on a cold
// cache and again on the warm one, across the Fig 9–13 workload shapes and
// randomized circuits. Run under -race this doubles as the data-race proof
// for the shared cache.
func TestParallelCompilationMatchesSerialReference(t *testing.T) {
	sys := testSystem(16)
	circs := map[string]*circuit.Circuit{
		"xeb-deep": bench.XEB(sys.Device, 6, 7),
		"bv":       routedOnto(t, bench.BV(16, 3), sys),
		"qaoa":     routedOnto(t, bench.QAOA(16, 5), sys),
	}
	for seed := int64(0); seed < 4; seed++ {
		name := fmt.Sprintf("rand-%d", seed)
		circs[name] = randomNativeCircuit(sys.Device.Coupling, sys.Device.Qubits, 160, seed)
	}
	for name, c := range circs {
		ctx := compile.NewContext(8)
		for _, comp := range schedule.Extended() {
			label := comp.Name() + "/" + name
			want, err := comp.Compile(&compile.Context{}, c, sys, schedule.Options{})
			if err != nil {
				t.Fatalf("%s zero Context: %v", label, err)
			}
			for _, pass := range []string{"cold", "warm"} {
				got, err := comp.Compile(ctx, c, sys, schedule.Options{})
				if err != nil {
					t.Fatalf("%s %s: %v", label, pass, err)
				}
				sameSchedule(t, label+"/"+pass, got, want)
			}
		}
	}
}

// TestComponentDecompositionMatchesMonolith pins the slice solve at its
// most sensitive spot: a constrained color budget, where deferral
// decisions depend on the exact coloring of each slice's active subgraph.
// The zero-Context compile colors every slice whole, with no memo to
// consult (its Recorder pins that: no hits, every slice a miss); a cached
// multi-worker Context must agree with it exactly. The cases once caught
// any drift between the per-component merge and the whole-subgraph
// coloring; they now guard the whole-slice memo the same way.
func TestComponentDecompositionMatchesMonolith(t *testing.T) {
	sys := testSystem(16)
	c := bench.XEB(sys.Device, 5, 11)
	for _, maxColors := range []int{1, 2, 3, -1} {
		opts := schedule.Options{MaxColors: maxColors}
		ref := &compile.Context{Record: compile.NewRecorder()}
		want, err := schedule.ColorDynamic{}.Compile(ref, c, sys, opts)
		if err != nil {
			t.Fatalf("zero Context maxColors=%d: %v", maxColors, err)
		}
		if tot, slice := ref.Record.Total(), ref.Record.StatsByRegion()[compile.RegionSlice]; tot.Hits != 0 || slice.Misses == 0 {
			t.Fatalf("maxColors=%d: reference consulted a memo: total %+v, slice %+v", maxColors, tot, slice)
		}
		got, err := schedule.ColorDynamic{}.Compile(compile.NewContext(4), c, sys, opts)
		if err != nil {
			t.Fatalf("cached maxColors=%d: %v", maxColors, err)
		}
		sameSchedule(t, fmt.Sprintf("maxColors=%d", maxColors), got, want)
	}
}

// TestCacheAccountingIndependentOfWorkers compiles one deep 100-qubit
// circuit on a fresh cache at 1 and at 4 workers. A job's cache traffic
// must not depend on its worker budget: every region records the same
// hits and misses either way.
func TestCacheAccountingIndependentOfWorkers(t *testing.T) {
	sys := testSystem(100)
	c := randomNativeCircuit(sys.Device, sys.Device.Qubits, 3000, 7)
	stats := func(workers int) map[string]compile.Stats {
		ctx := compile.NewContext(workers)
		if _, err := (schedule.ColorDynamic{}).Compile(ctx, c, sys, schedule.Options{}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return ctx.Cache.StatsByRegion()
	}
	one, four := stats(1), stats(4)
	if len(one) != len(four) {
		t.Fatalf("regions at 1 worker %v, at 4 workers %v", one, four)
	}
	for region, s := range one {
		if four[region] != s {
			t.Errorf("%s: %+v at 1 worker, %+v at 4 workers", region, s, four[region])
		}
	}
}
