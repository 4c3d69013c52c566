package noise

import (
	"math"
	"testing"

	"fastsc/internal/circuit"
	"fastsc/internal/graph"
	"fastsc/internal/phys"
	"fastsc/internal/schedule"
	"fastsc/internal/topology"
)

// These tests pin the evaluator's channel arithmetic against hand-computed
// values on minimal synthetic schedules.

// lineSystem builds a 1-D chain with exactly known parameters (no
// fabrication spread) so channel inputs are deterministic.
func lineSystem(n int) *phys.System {
	p := phys.DefaultParams()
	p.OmegaSigma = 0
	return phys.NewSystem(topology.Linear(n), p, 1)
}

// makeSchedule assembles a one-slice schedule by hand.
func makeSchedule(sys *phys.System, slice schedule.Slice, compiled *circuit.Circuit) *schedule.Schedule {
	slice.Start = 0
	return &schedule.Schedule{
		System:    sys,
		Strategy:  "synthetic",
		Slices:    []schedule.Slice{slice},
		TotalTime: slice.Duration,
		Compiled:  compiled,
	}
}

func TestAmbientChannelArithmetic(t *testing.T) {
	// Two idle qubits on one coupler, 0.5 GHz apart, 30 ns: the ambient
	// error must equal the direct transfer plus weighted sidebands.
	sys := lineSystem(2)
	g0 := sys.G0ByID(0) // coupler 0 = Edges()[0], via the dense accessor
	ec := sys.Transmon(0).EC
	fu, fv := 5.2, 5.7
	tau := 30.0
	comp := circuit.New(2)
	comp.X(0) // some physical gate so the program touches a qubit
	s := makeSchedule(sys, schedule.Slice{
		Duration: tau,
		Freqs:    []float64{fu, fv},
		Gates:    []schedule.GateEvent{{Gate: comp.Gates[0], Duration: 25, Freq: fu}},
	}, comp)

	opt := DefaultOptions()
	opt.FluxNoiseSigma = 0
	opt.Gate1Error, opt.Gate2Error = 0, 0
	rep := Evaluate(s, opt)

	want := phys.TransitionProbability(g0, fu-fv, tau)
	want += opt.SidebandWeight * (phys.TransitionProbability(math.Sqrt2*g0, (fu-ec)-fv, tau) +
		phys.TransitionProbability(math.Sqrt2*g0, fu-(fv-ec), tau))
	if math.Abs(rep.AmbientError-want) > 1e-12 {
		t.Fatalf("ambient error %v, want %v", rep.AmbientError, want)
	}
	if rep.GateGateError != 0 || rep.SpectatorError != 0 {
		t.Fatal("no gate-gate or spectator channels expected")
	}
}

func TestSpectatorChannelArithmetic(t *testing.T) {
	// Chain 0-1-2: gate on (0,1) at 6.5 GHz, qubit 2 parked at 5.3:
	// exactly one spectator channel through coupler (1,2).
	sys := lineSystem(3)
	g0 := sys.G0ByID(1) // coupler 1 = Edges()[1]
	ec := sys.Transmon(1).EC
	fInt, fSpec := 6.5, 5.3
	tau := 40.0
	comp := circuit.New(3)
	comp.CZ(0, 1)
	gate := comp.Gates[0]
	s := makeSchedule(sys, schedule.Slice{
		Duration:       tau,
		Freqs:          []float64{fInt, fInt, fSpec},
		Gates:          []schedule.GateEvent{{Gate: gate, Duration: tau - 2, Freq: fInt}},
		ActiveCouplers: []graph.Edge{edge(0, 1)},
	}, comp)

	opt := DefaultOptions()
	opt.FluxNoiseSigma = 0
	opt.Gate1Error, opt.Gate2Error = 0, 0
	opt.DisableAmbient = true
	rep := Evaluate(s, opt)

	want := phys.TransitionProbability(g0, fInt-fSpec, tau)
	want += opt.SidebandWeight * (phys.TransitionProbability(math.Sqrt2*g0, (fInt-ec)-fSpec, tau) +
		phys.TransitionProbability(math.Sqrt2*g0, fInt-(fSpec-ec), tau))
	if math.Abs(rep.SpectatorError-want) > 1e-12 {
		t.Fatalf("spectator error %v, want %v", rep.SpectatorError, want)
	}
}

func TestGateGateChannelDistanceOne(t *testing.T) {
	// Chain 0-1-2-3: gates on (0,1) and (2,3) — crosstalk distance 1 via
	// coupler (1,2) — at 0.3 GHz separation.
	sys := lineSystem(4)
	f1, f2 := 6.4, 6.7
	tau := 35.0
	comp := circuit.New(4)
	comp.CZ(0, 1).CZ(2, 3)
	ev1 := schedule.GateEvent{Gate: comp.Gates[0], Duration: tau, Freq: f1}
	ev2 := schedule.GateEvent{Gate: comp.Gates[1], Duration: tau, Freq: f2}
	s := makeSchedule(sys, schedule.Slice{
		Duration:       tau,
		Freqs:          []float64{f1, f1, f2, f2},
		Gates:          []schedule.GateEvent{ev1, ev2},
		ActiveCouplers: []graph.Edge{edge(0, 1), edge(2, 3)},
	}, comp)

	opt := DefaultOptions()
	opt.FluxNoiseSigma = 0
	opt.Gate1Error, opt.Gate2Error = 0, 0
	opt.DisableAmbient = true

	rep := Evaluate(s, opt)
	g0 := sys.G0(0, 1)
	ec := sys.Transmon(0).EC
	wantGate := phys.TransitionProbability(g0, f1-f2, tau) +
		phys.TransitionProbability(math.Sqrt2*g0, (f1-f2)-ec, tau) +
		phys.TransitionProbability(math.Sqrt2*g0, (f1-f2)+ec, tau)
	if math.Abs(rep.GateGateError-wantGate) > 1e-12 {
		t.Fatalf("gate-gate error %v, want %v", rep.GateGateError, wantGate)
	}
}

func TestGateGateChannelDistanceTwoScaled(t *testing.T) {
	// Chain 0-1-2-3-4-5: gates on (0,1) and (3,4) are at crosstalk
	// distance 2; the coupling must be scaled by NextNeighborFactor.
	sys := lineSystem(6)
	f := 6.5
	tau := 35.0
	comp := circuit.New(6)
	comp.CZ(0, 1).CZ(3, 4)
	s := makeSchedule(sys, schedule.Slice{
		Duration: tau,
		Freqs:    []float64{f, f, 5.3, f, f, 5.3},
		Gates: []schedule.GateEvent{
			{Gate: comp.Gates[0], Duration: tau, Freq: f},
			{Gate: comp.Gates[1], Duration: tau, Freq: f},
		},
	}, comp)
	s.Slices[0].ActiveCouplers = []graph.Edge{edge(0, 1), edge(3, 4)}

	opt := DefaultOptions()
	opt.FluxNoiseSigma = 0
	opt.Gate1Error, opt.Gate2Error = 0, 0
	opt.DisableAmbient = true
	// Spectators also fire here (qubits 2, 5); isolate the gate-gate part.
	rep := Evaluate(s, opt)

	g0 := sys.G0(0, 1) * opt.NextNeighborFactor
	ec := sys.Transmon(0).EC
	want := phys.TransitionProbability(g0, 0, tau) +
		2*phys.TransitionProbability(math.Sqrt2*g0, ec, tau)
	if math.Abs(rep.GateGateError-want) > 1e-12 {
		t.Fatalf("distance-2 gate-gate error %v, want %v", rep.GateGateError, want)
	}
}

func TestGmonScalesChannels(t *testing.T) {
	// Same synthetic ambient slice, gmon with r = 0.5: the channel must
	// use r·g0.
	sys := lineSystem(2)
	fu, fv := 5.2, 5.7
	tau := 30.0
	comp := circuit.New(2)
	comp.X(0)
	s := makeSchedule(sys, schedule.Slice{
		Duration: tau,
		Freqs:    []float64{fu, fv},
		Gates:    []schedule.GateEvent{{Gate: comp.Gates[0], Duration: 25, Freq: fu}},
	}, comp)
	s.Gmon = true
	s.Residual = 0.5

	opt := DefaultOptions()
	opt.FluxNoiseSigma = 0
	opt.Gate1Error, opt.Gate2Error = 0, 0
	rep := Evaluate(s, opt)

	g0 := 0.5 * sys.G0(0, 1)
	ec := sys.Transmon(0).EC
	want := phys.TransitionProbability(g0, fu-fv, tau)
	want += opt.SidebandWeight * (phys.TransitionProbability(math.Sqrt2*g0, (fu-ec)-fv, tau) +
		phys.TransitionProbability(math.Sqrt2*g0, fu-(fv-ec), tau))
	if math.Abs(rep.AmbientError-want) > 1e-12 {
		t.Fatalf("gmon ambient error %v, want %v", rep.AmbientError, want)
	}
}

func TestDecoherenceArithmetic(t *testing.T) {
	sys := lineSystem(2)
	tau := 500.0
	comp := circuit.New(2)
	comp.X(0).X(1)
	s := makeSchedule(sys, schedule.Slice{
		Duration: tau,
		Freqs:    []float64{5.2, 5.7},
		Gates: []schedule.GateEvent{
			{Gate: comp.Gates[0], Duration: 25, Freq: 5.2},
			{Gate: comp.Gates[1], Duration: 25, Freq: 5.7},
		},
	}, comp)
	opt := DefaultOptions()
	opt.FluxNoiseSigma = 0
	rep := Evaluate(s, opt)
	eq := sys.Transmon(0).DecoherenceError(tau)
	want := 1 - (1-eq)*(1-eq)
	if math.Abs(rep.DecoherenceError-want) > 1e-12 {
		t.Fatalf("decoherence %v, want %v", rep.DecoherenceError, want)
	}
}

func edge(a, b int) graph.Edge { return graph.NewEdge(a, b) }
