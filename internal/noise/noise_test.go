package noise

import (
	"math"
	"testing"

	"fastsc/internal/bench"
	"fastsc/internal/circuit"
	"fastsc/internal/compile"
	"fastsc/internal/phys"
	"fastsc/internal/schedule"
	"fastsc/internal/topology"
)

func compiled(t *testing.T, strategy string, c *circuit.Circuit, sys *phys.System, opts schedule.Options) *schedule.Schedule {
	t.Helper()
	comp := schedule.ByName(strategy)
	if comp == nil {
		t.Fatalf("unknown strategy %s", strategy)
	}
	s, err := comp.Compile(&compile.Context{}, c, sys, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func xebSystem(t *testing.T, n, cycles int) (*phys.System, *circuit.Circuit) {
	t.Helper()
	sys := phys.NewSystem(topology.SquareGrid(n), phys.DefaultParams(), 42)
	return sys, bench.XEB(sys.Device, cycles, 5)
}

func TestEvaluateBounds(t *testing.T) {
	sys, c := xebSystem(t, 9, 4)
	for _, strat := range schedule.Names() {
		s := compiled(t, strat, c, sys, schedule.Options{})
		rep := Evaluate(s, DefaultOptions())
		if rep.Success < 0 || rep.Success > 1 {
			t.Fatalf("%s: success %v out of range", strat, rep.Success)
		}
		for name, v := range map[string]float64{
			"crosstalk": rep.CrosstalkError, "gategate": rep.GateGateError,
			"spectator": rep.SpectatorError, "ambient": rep.AmbientError,
			"flux": rep.FluxError, "decoherence": rep.DecoherenceError,
			"intrinsic": rep.IntrinsicError,
		} {
			if v < 0 || v > 1 {
				t.Fatalf("%s: %s error %v out of range", strat, name, v)
			}
		}
	}
}

func TestEvaluateFactorization(t *testing.T) {
	sys, c := xebSystem(t, 9, 4)
	s := compiled(t, schedule.ColorDynamic{}.Name(), c, sys, schedule.Options{})
	rep := Evaluate(s, DefaultOptions())
	// Success must equal the product of the survival factors.
	want := (1 - rep.CrosstalkError) * (1 - rep.FluxError) *
		(1 - rep.DecoherenceError) * (1 - rep.IntrinsicError)
	if math.Abs(rep.Success-want) > 1e-9 {
		t.Fatalf("success %v != factor product %v", rep.Success, want)
	}
	// Crosstalk aggregates the three families.
	wantX := 1 - (1-rep.GateGateError)*(1-rep.SpectatorError)*(1-rep.AmbientError)
	if math.Abs(rep.CrosstalkError-wantX) > 1e-9 {
		t.Fatalf("crosstalk %v != family product %v", rep.CrosstalkError, wantX)
	}
}

func TestGateCountsMatchSchedule(t *testing.T) {
	sys, c := xebSystem(t, 9, 3)
	s := compiled(t, "ColorDynamic", c, sys, schedule.Options{})
	rep := Evaluate(s, DefaultOptions())
	if rep.NumGates != s.Compiled.NumGates() {
		t.Fatalf("NumGates %d != compiled %d", rep.NumGates, s.Compiled.NumGates())
	}
	if rep.Num2Q != s.Compiled.TwoQubitGateCount() {
		t.Fatalf("Num2Q %d != compiled %d", rep.Num2Q, s.Compiled.TwoQubitGateCount())
	}
	if rep.Depth != s.Depth() || rep.Duration != s.TotalTime {
		t.Fatal("depth/duration mismatch")
	}
}

func TestPerfectGmonHasNoCrosstalk(t *testing.T) {
	sys, c := xebSystem(t, 16, 5)
	s := compiled(t, "Baseline G", c, sys, schedule.Options{Residual: 0})
	rep := Evaluate(s, DefaultOptions())
	if rep.CrosstalkError > 1e-12 {
		t.Fatalf("perfectly deactivated couplers should yield zero crosstalk, got %v",
			rep.CrosstalkError)
	}
	if rep.Success <= 0 {
		t.Fatal("gmon success should be positive")
	}
}

func TestGmonDegradesWithResidual(t *testing.T) {
	sys, c := xebSystem(t, 16, 8)
	prev := math.Inf(1)
	for _, r := range []float64{0, 0.2, 0.4, 0.6, 0.8} {
		s := compiled(t, "Baseline G", c, sys, schedule.Options{Residual: r})
		rep := Evaluate(s, DefaultOptions())
		if rep.Success > prev+1e-12 {
			t.Fatalf("gmon success should decay with residual coupling: r=%v gives %v > %v",
				r, rep.Success, prev)
		}
		prev = rep.Success
	}
	// The decay must be substantial across the sweep (Fig 12).
	s0 := Evaluate(compiled(t, "Baseline G", c, sys, schedule.Options{Residual: 0}), DefaultOptions())
	s9 := Evaluate(compiled(t, "Baseline G", c, sys, schedule.Options{Residual: 0.9}), DefaultOptions())
	if s9.Success > s0.Success/5 {
		t.Fatalf("residual sweep too flat: %v -> %v", s0.Success, s9.Success)
	}
}

func TestColorDynamicBeatsNaiveAndUniformOnParallelCircuit(t *testing.T) {
	// The paper's robust per-benchmark claims: ColorDynamic clearly beats
	// both the crosstalk-unaware and the serializing baselines on parallel
	// workloads (N-vs-U ordering varies instance to instance because N's
	// uncoordinated frequencies are a lottery).
	sys, c := xebSystem(t, 16, 10)
	cd := Evaluate(compiled(t, "ColorDynamic", c, sys, schedule.Options{}), DefaultOptions())
	n := Evaluate(compiled(t, "Baseline N", c, sys, schedule.Options{}), DefaultOptions())
	u := Evaluate(compiled(t, "Baseline U", c, sys, schedule.Options{}), DefaultOptions())
	if cd.Success <= 2*u.Success {
		t.Fatalf("ColorDynamic (%v) should clearly beat Baseline U (%v) on XEB", cd.Success, u.Success)
	}
	if cd.Success <= 2*n.Success {
		t.Fatalf("ColorDynamic (%v) should clearly beat Baseline N (%v) on XEB", cd.Success, n.Success)
	}
}

func TestColorDynamicMatchesGmon(t *testing.T) {
	// The headline claim: tunable-qubit fixed-coupler hardware with
	// ColorDynamic stays within a small factor of the tunable-coupler
	// architecture (§I, Fig 9).
	sys, c := xebSystem(t, 16, 10)
	cd := Evaluate(compiled(t, "ColorDynamic", c, sys, schedule.Options{}), DefaultOptions())
	g := Evaluate(compiled(t, "Baseline G", c, sys, schedule.Options{}), DefaultOptions())
	if cd.Success < g.Success/5 {
		t.Fatalf("ColorDynamic (%v) should be within 5x of Baseline G (%v)", cd.Success, g.Success)
	}
}

func TestDisableAmbient(t *testing.T) {
	sys, c := xebSystem(t, 9, 4)
	s := compiled(t, "ColorDynamic", c, sys, schedule.Options{})
	opt := DefaultOptions()
	opt.DisableAmbient = true
	rep := Evaluate(s, opt)
	if rep.AmbientError != 0 {
		t.Fatalf("ambient channel should be disabled, got %v", rep.AmbientError)
	}
	full := Evaluate(s, DefaultOptions())
	if rep.Success < full.Success {
		t.Fatal("removing a channel cannot decrease success")
	}
}

func TestZeroIntrinsicErrors(t *testing.T) {
	sys, c := xebSystem(t, 9, 4)
	s := compiled(t, "ColorDynamic", c, sys, schedule.Options{})
	opt := DefaultOptions()
	opt.Gate1Error, opt.Gate2Error = 0, 0
	rep := Evaluate(s, opt)
	if rep.IntrinsicError != 0 {
		t.Fatalf("intrinsic error should vanish, got %v", rep.IntrinsicError)
	}
}

func TestFluxNoiseDisable(t *testing.T) {
	sys, c := xebSystem(t, 9, 4)
	s := compiled(t, "ColorDynamic", c, sys, schedule.Options{})
	opt := DefaultOptions()
	opt.FluxNoiseSigma = 0
	rep := Evaluate(s, opt)
	if rep.FluxError != 0 {
		t.Fatalf("flux channel should be disabled, got %v", rep.FluxError)
	}
}

func TestDecoherenceGrowsWithDepth(t *testing.T) {
	sys := phys.NewSystem(topology.SquareGrid(9), phys.DefaultParams(), 42)
	short := bench.XEB(sys.Device, 2, 5)
	long := bench.XEB(sys.Device, 12, 5)
	rs := Evaluate(compiled(t, "ColorDynamic", short, sys, schedule.Options{}), DefaultOptions())
	rl := Evaluate(compiled(t, "ColorDynamic", long, sys, schedule.Options{}), DefaultOptions())
	if rl.DecoherenceError <= rs.DecoherenceError {
		t.Fatalf("deeper circuit should decohere more: %v vs %v",
			rl.DecoherenceError, rs.DecoherenceError)
	}
}

func TestEvaluateDeterministic(t *testing.T) {
	sys, c := xebSystem(t, 9, 4)
	s := compiled(t, "ColorDynamic", c, sys, schedule.Options{})
	r1 := Evaluate(s, DefaultOptions())
	r2 := Evaluate(s, DefaultOptions())
	if r1.Success != r2.Success || r1.CrosstalkError != r2.CrosstalkError {
		t.Fatal("evaluation not deterministic")
	}
}

func TestSerialCircuitHasNoGateGateError(t *testing.T) {
	// A strictly serial two-qubit circuit can never have simultaneous
	// gates, so the gate-gate channel must be empty.
	sys := phys.NewSystem(topology.SquareGrid(4), phys.DefaultParams(), 42)
	c := circuit.New(4)
	c.CZ(0, 1).CZ(1, 3).CZ(3, 2).CZ(2, 0)
	s := compiled(t, "ColorDynamic", c, sys, schedule.Options{})
	rep := Evaluate(s, DefaultOptions())
	if rep.GateGateError != 0 {
		t.Fatalf("serial circuit has gate-gate error %v", rep.GateGateError)
	}
	if rep.SpectatorError <= 0 {
		t.Fatal("active gates next to parked qubits should register spectator channels")
	}
}

// TestEvaluateAllocsIndependentOfDepth bounds Evaluate's allocations by a
// constant: the evaluator's per-slice state lives in slices it owns, and
// the flux sensitivities come from the System's memo, so a schedule ten
// times deeper allocates no more.
func TestEvaluateAllocsIndependentOfDepth(t *testing.T) {
	sys := phys.NewSystem(topology.SquareGrid(16), phys.DefaultParams(), 42)
	opt := DefaultOptions()
	allocs := func(cycles int) (float64, int) {
		s := compiled(t, "ColorDynamic", bench.XEB(sys.Device, cycles, 5), sys, schedule.Options{})
		return testing.AllocsPerRun(20, func() { Evaluate(s, opt) }), s.Depth()
	}
	shallow, shallowDepth := allocs(2)
	deep, deepDepth := allocs(20)
	if deepDepth < 5*shallowDepth {
		t.Fatalf("depths %d and %d do not differ enough to test anything", shallowDepth, deepDepth)
	}
	const bound = 5 // evaluator, its coupler list and two scratch slices, the Report
	if shallow > bound || deep > bound {
		t.Fatalf("Evaluate allocates %v times at depth %d and %v at depth %d, want at most %d",
			shallow, shallowDepth, deep, deepDepth, bound)
	}
}
