package schedule

import (
	"math"
	"testing"

	"fastsc/internal/bench"
	"fastsc/internal/circuit"
	"fastsc/internal/compile"
	"fastsc/internal/graph"
	"fastsc/internal/mapping"
	"fastsc/internal/phys"
	"fastsc/internal/smt"
	"fastsc/internal/topology"
	"fastsc/internal/xtalk"
)

func testSystem(n int) *phys.System {
	return phys.NewSystem(topology.SquareGrid(n), phys.DefaultParams(), 42)
}

// smallCircuit acts on coupler pairs (0,1) and (4,5), which are coupled on
// every square grid of at least 9 qubits.
func smallCircuit() *circuit.Circuit {
	c := circuit.New(6)
	c.H(0).H(1).H(4).H(5)
	c.CNOT(0, 1).CNOT(4, 5)
	c.H(0).H(4)
	return c
}

// routedIsing places the Ising chain along the device snake so every bond
// lands on a coupler.
func routedIsing(t *testing.T, sys *phys.System, n, steps int) *circuit.Circuit {
	t.Helper()
	res, err := mapping.Route(bench.Ising(n, steps), sys.Device,
		mapping.FromOrder(n, mapping.SnakeOrder(sys.Device), sys.Device.Qubits))
	if err != nil {
		t.Fatal(err)
	}
	return res.Routed
}

func TestAllStrategiesCompileAndVerify(t *testing.T) {
	sys := testSystem(9)
	circs := map[string]*circuit.Circuit{
		"small": smallCircuit(),
		"xeb":   bench.XEB(sys.Device, 4, 3),
		"ising": routedIsing(t, sys, 9, 3),
	}
	for name, c := range circs {
		for _, comp := range Registry() {
			s, err := comp.Compile(&compile.Context{}, c, sys, Options{})
			if err != nil {
				t.Fatalf("%s/%s: %v", comp.Name(), name, err)
			}
			if err := s.Verify(); err != nil {
				t.Fatalf("%s/%s: %v", comp.Name(), name, err)
			}
			if s.TotalTime <= 0 {
				t.Fatalf("%s/%s: nonpositive duration", comp.Name(), name)
			}
			if s.Strategy != comp.Name() {
				t.Fatalf("schedule strategy label %q != %q", s.Strategy, comp.Name())
			}
		}
	}
}

func TestScheduleDeterministic(t *testing.T) {
	sys := testSystem(9)
	c := bench.XEB(sys.Device, 3, 7)
	for _, comp := range Registry() {
		s1, err1 := comp.Compile(&compile.Context{}, c, sys, Options{})
		s2, err2 := comp.Compile(&compile.Context{}, c, sys, Options{})
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: %v %v", comp.Name(), err1, err2)
		}
		if s1.Depth() != s2.Depth() || s1.TotalTime != s2.TotalTime {
			t.Fatalf("%s: nondeterministic schedule", comp.Name())
		}
		for i := range s1.Slices {
			if len(s1.Slices[i].Gates) != len(s2.Slices[i].Gates) {
				t.Fatalf("%s: slice %d differs", comp.Name(), i)
			}
			for q, f := range s1.Slices[i].Freqs {
				if s2.Slices[i].Freqs[q] != f {
					t.Fatalf("%s: frequency differs at slice %d qubit %d", comp.Name(), i, q)
				}
			}
		}
	}
}

// TestCompiledDepthMatchesReference pins Schedule.CompiledDepth — taken
// from the shared circuit.Analysis at build time — to the reference
// ASAPLayers depth of the compiled circuit, for every strategy and several
// circuit shapes.
func TestCompiledDepthMatchesReference(t *testing.T) {
	sys := testSystem(9)
	circs := map[string]*circuit.Circuit{
		"small": smallCircuit(),
		"xeb":   bench.XEB(sys.Device, 4, 3),
		"ising": routedIsing(t, sys, 9, 3),
	}
	for name, c := range circs {
		for _, comp := range Registry() {
			s, err := comp.Compile(&compile.Context{}, c, sys, Options{})
			if err != nil {
				t.Fatalf("%s/%s: %v", comp.Name(), name, err)
			}
			if want := s.Compiled.Depth(); s.CompiledDepth != want {
				t.Fatalf("%s/%s: CompiledDepth %d != reference ASAP depth %d",
					comp.Name(), name, s.CompiledDepth, want)
			}
			if s.CompiledDepth <= 0 {
				t.Fatalf("%s/%s: CompiledDepth %d not positive", comp.Name(), name, s.CompiledDepth)
			}
		}
	}
}

func TestCompileRejectsOversizedCircuit(t *testing.T) {
	sys := testSystem(4)
	c := circuit.New(9)
	c.H(0)
	for _, comp := range Registry() {
		if _, err := comp.Compile(&compile.Context{}, c, sys, Options{}); err == nil {
			t.Fatalf("%s accepted oversized circuit", comp.Name())
		}
	}
}

func TestParkingFrequenciesCheckerboard(t *testing.T) {
	sys := testSystem(16)
	s, err := (ColorDynamic{}).Compile(&compile.Context{}, smallCircuit(), sys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Parked neighbors must be well separated (different classes).
	for _, e := range sys.Device.Edges() {
		gap := math.Abs(s.ParkingFreqs[e.U] - s.ParkingFreqs[e.V])
		if gap < 0.2 {
			t.Fatalf("parked neighbors %v only %.3f GHz apart", e, gap)
		}
	}
	// Same-class distance-2 pairs must be staggered apart.
	for _, q := range sys.Device.QubitsSorted() {
		nbrs := sys.Device.NeighborsSorted(q)
		for i := 0; i < len(nbrs); i++ {
			for j := i + 1; j < len(nbrs); j++ {
				u, v := nbrs[i], nbrs[j]
				if sys.Device.Coupling.HasEdge(u, v) {
					continue
				}
				gap := math.Abs(s.ParkingFreqs[u] - s.ParkingFreqs[v])
				if gap < 0.01 {
					t.Fatalf("distance-2 parked pair (%d,%d) nearly resonant: %.4f GHz", u, v, gap)
				}
			}
		}
	}
}

func TestParkingInsideParkingBand(t *testing.T) {
	sys := testSystem(9)
	s, err := (Uniform{}).Compile(&compile.Context{}, smallCircuit(), sys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := sys.CommonRange()
	for q, f := range s.ParkingFreqs {
		if f < lo-1e-9 || f > hi+1e-9 {
			t.Fatalf("qubit %d parked at %.3f outside common range [%.3f, %.3f]", q, f, lo, hi)
		}
		if !sys.Transmon(q).Reaches(f) {
			t.Fatalf("qubit %d cannot reach its parking frequency %.3f", q, f)
		}
	}
}

func TestInteractionFrequenciesReachable(t *testing.T) {
	sys := testSystem(9)
	c := bench.XEB(sys.Device, 4, 1)
	for _, comp := range Registry() {
		s, err := comp.Compile(&compile.Context{}, c, sys, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for si, sl := range s.Slices {
			for _, ev := range sl.Gates {
				if !ev.Gate.Kind.IsTwoQubit() {
					continue
				}
				for _, q := range ev.Gate.Qubits {
					if !sys.Transmon(q).Reaches(ev.Freq) {
						t.Fatalf("%s slice %d: qubit %d cannot reach %.3f GHz",
							comp.Name(), si, q, ev.Freq)
					}
				}
			}
		}
	}
}

func TestUniformSingleFrequency(t *testing.T) {
	sys := testSystem(9)
	c := bench.XEB(sys.Device, 4, 1)
	s, err := (Uniform{}).Compile(&compile.Context{}, c, sys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	freq := -1.0
	for _, sl := range s.Slices {
		for _, ev := range sl.Gates {
			if !ev.Gate.Kind.IsTwoQubit() {
				continue
			}
			if freq < 0 {
				freq = ev.Freq
			}
			if ev.Freq != freq {
				t.Fatalf("Baseline U used two interaction frequencies: %v and %v", freq, ev.Freq)
			}
		}
	}
	if freq < 0 {
		t.Fatal("no two-qubit gates scheduled")
	}
}

func TestUniformSerializesAdjacentGates(t *testing.T) {
	sys := testSystem(9)
	c := bench.XEB(sys.Device, 4, 1)
	s, err := (Uniform{}).Compile(&compile.Context{}, c, sys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	x1 := xtalk.Build(sys.Device, 1)
	for si, sl := range s.Slices {
		for i := 0; i < len(sl.ActiveCouplers); i++ {
			for j := i + 1; j < len(sl.ActiveCouplers); j++ {
				a, b := sl.ActiveCouplers[i], sl.ActiveCouplers[j]
				va, _ := x1.VertexOf(a.U, a.V)
				vb, _ := x1.VertexOf(b.U, b.V)
				if x1.G.HasEdge(va, vb) {
					t.Fatalf("Baseline U slice %d runs adjacent couplers %v and %v", si, a, b)
				}
			}
		}
	}
}

func TestColorDynamicSeparatesNearbyGates(t *testing.T) {
	sys := testSystem(16)
	c := bench.XEB(sys.Device, 6, 2)
	s, err := (ColorDynamic{}).Compile(&compile.Context{}, c, sys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	x2 := xtalk.Build(sys.Device, 2)
	minSep := math.Inf(1)
	checked := 0
	for si := range s.Slices {
		sl := &s.Slices[si]
		var events []GateEvent
		for _, ev := range sl.Gates {
			if ev.Gate.Kind.IsTwoQubit() {
				events = append(events, ev)
			}
		}
		for i := 0; i < len(events); i++ {
			for j := i + 1; j < len(events); j++ {
				a := graph.NewEdge(events[i].Gate.Qubits[0], events[i].Gate.Qubits[1])
				b := graph.NewEdge(events[j].Gate.Qubits[0], events[j].Gate.Qubits[1])
				va, _ := x2.VertexOf(a.U, a.V)
				vb, _ := x2.VertexOf(b.U, b.V)
				if !x2.G.HasEdge(va, vb) {
					continue
				}
				checked++
				sep := math.Abs(events[i].Freq - events[j].Freq)
				if sep < minSep {
					minSep = sep
				}
			}
		}
	}
	if checked == 0 {
		t.Skip("no simultaneous nearby gates scheduled")
	}
	if minSep < 0.05 {
		t.Fatalf("ColorDynamic left nearby simultaneous gates only %.3f GHz apart", minSep)
	}
}

func TestColorDynamicMaxColorsBound(t *testing.T) {
	sys := testSystem(16)
	c := bench.XEB(sys.Device, 6, 2)
	for _, k := range []int{1, 2, 3, 4} {
		s, err := (ColorDynamic{}).Compile(&compile.Context{}, c, sys, Options{MaxColors: k})
		if err != nil {
			t.Fatal(err)
		}
		if s.MaxColorsUsed > k {
			t.Fatalf("MaxColors=%d but schedule used %d", k, s.MaxColorsUsed)
		}
		if err := s.Verify(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestColorDynamicFewerColorsMeansDeeper(t *testing.T) {
	sys := testSystem(16)
	c := bench.XEB(sys.Device, 6, 2)
	s1, err := (ColorDynamic{}).Compile(&compile.Context{}, c, sys, Options{MaxColors: 1})
	if err != nil {
		t.Fatal(err)
	}
	s4, err := (ColorDynamic{}).Compile(&compile.Context{}, c, sys, Options{MaxColors: 4})
	if err != nil {
		t.Fatal(err)
	}
	if s1.Depth() < s4.Depth() {
		t.Fatalf("1-color schedule depth %d should be >= 4-color depth %d",
			s1.Depth(), s4.Depth())
	}
}

func TestGmonActiveCouplersTracked(t *testing.T) {
	sys := testSystem(9)
	c := bench.XEB(sys.Device, 4, 1)
	s, err := (Gmon{}).Compile(&compile.Context{}, c, sys, Options{Residual: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if !s.Gmon || s.Residual != 0.3 {
		t.Fatal("gmon flags not propagated")
	}
	for si, sl := range s.Slices {
		n2q := 0
		for _, ev := range sl.Gates {
			if ev.Gate.Kind.IsTwoQubit() {
				n2q++
			}
		}
		if n2q != len(sl.ActiveCouplers) {
			t.Fatalf("slice %d: %d 2q gates but %d active couplers", si, n2q, len(sl.ActiveCouplers))
		}
	}
}

func TestGmonTilingOnePatternPerSlice(t *testing.T) {
	sys := testSystem(16)
	c := bench.XEB(sys.Device, 4, 1)
	s, err := (Gmon{}).Compile(&compile.Context{}, c, sys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	patterns := tilingPatterns(sys.Device)
	for si, sl := range s.Slices {
		seen := make(map[int]bool)
		for _, e := range sl.ActiveCouplers {
			id, ok := sys.Device.Coupling.EdgeID(e.U, e.V)
			if !ok {
				t.Fatalf("slice %d: active coupler %v is not a device edge", si, e)
			}
			seen[patterns[id]] = true
		}
		if len(seen) > 1 {
			t.Fatalf("gmon slice %d mixes tiling patterns: %v", si, seen)
		}
	}
}

func TestTilingPatternsAreMatchings(t *testing.T) {
	for _, dev := range []*topology.Device{
		topology.Grid(4, 4),
		topology.Express1D(9, 3),
		topology.Ring(8),
	} {
		patterns := tilingPatterns(dev)
		byClass := make(map[int][]graph.Edge)
		for id, e := range dev.Edges() {
			byClass[patterns[id]] = append(byClass[patterns[id]], e)
		}
		for p, edges := range byClass {
			used := make(map[int]bool)
			for _, e := range edges {
				if used[e.U] || used[e.V] {
					t.Fatalf("%s pattern %d is not a matching", dev.Name, p)
				}
				used[e.U] = true
				used[e.V] = true
			}
		}
		if len(patterns) != dev.Coupling.NumEdges() {
			t.Fatalf("%s: %d patterned couplers, want %d", dev.Name, len(patterns), dev.Coupling.NumEdges())
		}
	}
}

func TestNaiveASAPDepthMatchesCircuit(t *testing.T) {
	sys := testSystem(9)
	c := circuit.Decompose(smallCircuit(), circuit.Hybrid)
	wide := circuit.New(9)
	wide.Gates = c.Gates
	s, err := (Naive{}).Compile(&compile.Context{}, smallCircuit(), sys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Depth() != wide.Depth() {
		t.Fatalf("naive depth %d != ASAP circuit depth %d", s.Depth(), wide.Depth())
	}
}

func TestSlicesNeverReuseQubits(t *testing.T) {
	sys := testSystem(9)
	c := routedIsing(t, sys, 9, 4)
	for _, comp := range Registry() {
		s, err := comp.Compile(&compile.Context{}, c, sys, Options{})
		if err != nil {
			t.Fatal(err)
		}
		// Verify() checks this invariant; also check frequencies exist for
		// every qubit.
		if err := s.Verify(); err != nil {
			t.Fatalf("%s: %v", comp.Name(), err)
		}
		for si, sl := range s.Slices {
			if len(sl.Freqs) != sys.Device.Qubits {
				t.Fatalf("%s slice %d: %d frequencies for %d qubits",
					comp.Name(), si, len(sl.Freqs), sys.Device.Qubits)
			}
		}
	}
}

func TestByNameAndRegistry(t *testing.T) {
	if len(Registry()) != 5 {
		t.Fatalf("registry has %d strategies, want 5", len(Registry()))
	}
	for _, name := range Names() {
		if ByName(name) == nil {
			t.Fatalf("ByName(%q) = nil", name)
		}
	}
	if ByName("nonsense") != nil {
		t.Fatal("ByName should return nil for unknown strategies")
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.XtalkDistance != 2 || o.MaxColors != 2 || o.ConflictLimit != 4 {
		t.Fatalf("unexpected defaults: %+v", o)
	}
	u := Options{MaxColors: -1}.withDefaults()
	if u.MaxColors != -1 {
		t.Fatal("MaxColors=-1 (unlimited) should be preserved")
	}
}

func TestSortByCriticality(t *testing.T) {
	crit := []int32{5, 1, 9, 3}
	ready := []int{0, 1, 2, 3}
	sortByCriticality(ready, crit)
	want := []int{2, 0, 3, 1}
	for i := range want {
		if ready[i] != want[i] {
			t.Fatalf("sorted = %v, want %v", ready, want)
		}
	}
}

func TestMaxColorsFeasible(t *testing.T) {
	sys := testSystem(4)
	lo, hi := sys.CommonRange()
	part := smt.PartitionFor(lo, hi)
	k := maxColorsFeasible(&compile.Context{}, part.InteractionConfig(sys.MeanAnharmonicity()), 16)
	if k < 2 {
		t.Fatalf("interaction band should host at least 2 colors, got %d", k)
	}
}

func TestDecomposeOptionRespected(t *testing.T) {
	sys := testSystem(4)
	c := circuit.New(4)
	c.CNOT(0, 1)
	s, err := (ColorDynamic{}).Compile(&compile.Context{}, c, sys, Options{Decompose: circuit.PureISwap})
	if err != nil {
		t.Fatal(err)
	}
	if n := s.Compiled.CountKind(circuit.ISwap); n != 2 {
		t.Fatalf("pure-iSWAP CNOT should compile to 2 iSWAPs, got %d", n)
	}
}

func TestFluxRampIncludedInSliceDuration(t *testing.T) {
	sys := testSystem(4)
	c := circuit.New(4)
	c.H(0)
	s, err := (ColorDynamic{}).Compile(&compile.Context{}, c, sys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Slices) != 1 {
		t.Fatalf("depth = %d", len(s.Slices))
	}
	want := phys.SingleQubitGateTime + phys.FluxRampTime
	if math.Abs(s.Slices[0].Duration-want) > 1e-9 {
		t.Fatalf("slice duration = %v, want %v", s.Slices[0].Duration, want)
	}
}
