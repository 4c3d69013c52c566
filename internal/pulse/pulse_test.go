package pulse

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

func loweredSchedule(t *testing.T, strategy string, c *circuit.Circuit, sys *phys.System) (*schedule.Schedule, *Program) {
	t.Helper()
	s, err := schedule.ByName(strategy).Compile(&compile.Context{}, c, sys, schedule.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := Lower(s)
	if err != nil {
		t.Fatal(err)
	}
	return s, p
}

func TestLowerValidatesOnAllStrategies(t *testing.T) {
	sys := phys.NewSystem(topology.SquareGrid(9), phys.DefaultParams(), 42)
	c := bench.XEB(sys.Device, 4, 3)
	for _, strat := range schedule.Names() {
		s, p := loweredSchedule(t, strat, c, sys)
		if err := p.Validate(s); err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
		if p.Total != s.TotalTime {
			t.Fatalf("%s: program duration %v != schedule %v", strat, p.Total, s.TotalTime)
		}
	}
}

func TestFluxStepsMerge(t *testing.T) {
	// A long serial circuit keeps idle qubits parked: their flux sequence
	// must be a single merged step, not one step per slice.
	sys := phys.NewSystem(topology.SquareGrid(9), phys.DefaultParams(), 42)
	c := circuit.New(9)
	for i := 0; i < 10; i++ {
		c.X(0)
	}
	s, p := loweredSchedule(t, "ColorDynamic", c, sys)
	if err := p.Validate(s); err != nil {
		t.Fatal(err)
	}
	// Qubit 8 never moves: exactly one flux step.
	if n := len(p.Qubits[8].Flux); n != 1 {
		t.Fatalf("idle qubit has %d flux steps, want 1", n)
	}
	// Qubit 0 is driven but never retuned either.
	if n := len(p.Qubits[0].Flux); n != 1 {
		t.Fatalf("driven-but-parked qubit has %d flux steps, want 1", n)
	}
	if len(p.Qubits[0].Drives) != 10 {
		t.Fatalf("qubit 0 should have 10 drive pulses, got %d", len(p.Qubits[0].Drives))
	}
}

func TestCZOperatingPoint(t *testing.T) {
	sys := phys.NewSystem(topology.SquareGrid(4), phys.DefaultParams(), 42)
	c := circuit.New(4)
	c.CZ(0, 1)
	s, p := loweredSchedule(t, "ColorDynamic", c, sys)
	if err := p.Validate(s); err != nil {
		t.Fatal(err)
	}
	if len(p.Interactions) != 1 {
		t.Fatalf("want 1 interaction window, got %d", len(p.Interactions))
	}
	iw := p.Interactions[0]
	ec := sys.Transmon(1).EC
	if math.Abs((iw.FreqB-ec)-iw.FreqA) > 1e-9 {
		t.Fatalf("CZ pair not on the avoided crossing: %v vs %v", iw.FreqA, iw.FreqB-ec)
	}
}

func TestISwapOperatingPoint(t *testing.T) {
	sys := phys.NewSystem(topology.SquareGrid(4), phys.DefaultParams(), 42)
	c := circuit.New(4)
	c.ISwap(0, 1)
	s, p := loweredSchedule(t, "ColorDynamic", c, sys)
	if err := p.Validate(s); err != nil {
		t.Fatal(err)
	}
	iw := p.Interactions[0]
	if iw.FreqA != iw.FreqB {
		t.Fatalf("iSWAP pair detuned: %v vs %v", iw.FreqA, iw.FreqB)
	}
}

func TestVirtualGatesBecomeFrameUpdates(t *testing.T) {
	sys := phys.NewSystem(topology.SquareGrid(4), phys.DefaultParams(), 42)
	c := circuit.New(4)
	c.RZ(0, 0.5).S(1).H(2)
	s, p := loweredSchedule(t, "ColorDynamic", c, sys)
	if err := p.Validate(s); err != nil {
		t.Fatal(err)
	}
	if len(p.Qubits[0].Frames) != 1 || len(p.Qubits[1].Frames) != 1 {
		t.Fatal("RZ/S should lower to frame updates")
	}
	if len(p.Qubits[0].Drives) != 0 {
		t.Fatal("virtual gate must not produce a microwave drive")
	}
	if len(p.Qubits[2].Drives) != 1 {
		t.Fatal("H should produce a microwave drive")
	}
}

func TestRetuneAccounting(t *testing.T) {
	sys := phys.NewSystem(topology.SquareGrid(4), phys.DefaultParams(), 42)
	c := circuit.New(4)
	// The X layer between the CZs forces the pair back to parking, so both
	// active qubits retune at least twice.
	c.CZ(0, 1).X(0).X(1).CZ(0, 1)
	s, p := loweredSchedule(t, "ColorDynamic", c, sys)
	if err := p.Validate(s); err != nil {
		t.Fatal(err)
	}
	per := p.RetunesPerQubit()
	// Qubits 0 and 1 retune at least park->interaction->... steps; idle
	// qubits 2,3 never retune.
	if per[2] != 0 || per[3] != 0 {
		t.Fatalf("idle qubits retuned: %v", per)
	}
	if per[0] == 0 || per[1] == 0 {
		t.Fatalf("active qubits should retune: %v", per)
	}
	if p.TotalRampOverhead() <= 0 {
		t.Fatal("ramp overhead should be positive")
	}
}

func TestMaxFluxExcursionBounded(t *testing.T) {
	sys := phys.NewSystem(topology.SquareGrid(9), phys.DefaultParams(), 42)
	c := bench.XEB(sys.Device, 6, 1)
	s, p := loweredSchedule(t, "ColorDynamic", c, sys)
	if err := p.Validate(s); err != nil {
		t.Fatal(err)
	}
	if exc := p.MaxFluxExcursion(); exc <= 0 || exc > 0.5 {
		t.Fatalf("max flux excursion %v outside (0, 0.5]", exc)
	}
}

func TestLowerDeterministic(t *testing.T) {
	sys := phys.NewSystem(topology.SquareGrid(9), phys.DefaultParams(), 42)
	c := bench.XEB(sys.Device, 3, 3)
	_, p1 := loweredSchedule(t, "ColorDynamic", c, sys)
	_, p2 := loweredSchedule(t, "ColorDynamic", c, sys)
	if p1.Retunes != p2.Retunes || len(p1.Interactions) != len(p2.Interactions) {
		t.Fatal("lowering not deterministic")
	}
}
