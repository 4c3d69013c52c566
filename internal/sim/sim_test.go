package sim

import (
	"math"
	"testing"
	"testing/quick"

	"fastsc/internal/bench"
	"fastsc/internal/circuit"
	"fastsc/internal/compile"
	"fastsc/internal/phys"
	"fastsc/internal/schedule"
	"fastsc/internal/topology"
)

func TestNewStateIsGround(t *testing.T) {
	s := NewState(3)
	if p := s.Probability(0); p != 1 {
		t.Fatalf("P(|000⟩) = %v", p)
	}
	if n := s.Norm(); n != 1 {
		t.Fatalf("norm = %v", n)
	}
}

func TestNewStatePanics(t *testing.T) {
	for _, n := range []int{0, MaxQubits + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewState(%d) should panic", n)
				}
			}()
			NewState(n)
		}()
	}
}

func TestHadamardTwiceIsIdentity(t *testing.T) {
	s := NewState(2)
	h := circuit.Matrix1(circuit.H, 0)
	s.Apply1Q(h, 0)
	s.Apply1Q(h, 0)
	if p := s.Probability(0); math.Abs(p-1) > 1e-12 {
		t.Fatalf("HH|00⟩ should be |00⟩, P = %v", p)
	}
}

func TestBellState(t *testing.T) {
	c := circuit.New(2)
	c.H(0).CNOT(0, 1)
	s := RunIdeal(c)
	// |00⟩ index 0, |11⟩ index 3.
	if math.Abs(s.Probability(0)-0.5) > 1e-12 || math.Abs(s.Probability(3)-0.5) > 1e-12 {
		t.Fatalf("Bell state probabilities: %v %v %v %v",
			s.Probability(0), s.Probability(1), s.Probability(2), s.Probability(3))
	}
}

func TestQubitBitOrder(t *testing.T) {
	// X on qubit 0 of 3 should set the most significant bit: |100⟩ = 4.
	c := circuit.New(3)
	c.X(0)
	s := RunIdeal(c)
	if p := s.Probability(4); p != 1 {
		t.Fatalf("X(0)|000⟩: P(|100⟩) = %v", p)
	}
}

func TestISwapAction(t *testing.T) {
	// Paper convention: iSWAP|01⟩ = −i|10⟩.
	c := circuit.New(2)
	c.X(1) // |01⟩
	s := RunIdeal(c)
	s.Apply2Q(circuit.Matrix2Q(circuit.ISwap), 0, 1)
	if math.Abs(s.Probability(2)-1) > 1e-12 {
		t.Fatalf("iSWAP|01⟩ should have all population in |10⟩, got %v", s.Probability(2))
	}
	if math.Abs(imag(s.Amps[2])+1) > 1e-12 {
		t.Fatalf("iSWAP phase should be −i, amp = %v", s.Amps[2])
	}
}

func TestExcitedPopulation(t *testing.T) {
	c := circuit.New(2)
	c.H(0)
	s := RunIdeal(c)
	if p := s.ExcitedPopulation(0); math.Abs(p-0.5) > 1e-12 {
		t.Fatalf("H qubit excited pop = %v", p)
	}
	if p := s.ExcitedPopulation(1); p != 0 {
		t.Fatalf("idle qubit excited pop = %v", p)
	}
}

func TestFidelitySelf(t *testing.T) {
	c := circuit.New(3)
	c.H(0).CNOT(0, 1).RZ(2, 0.7)
	s := RunIdeal(c)
	if f := s.Fidelity(s); math.Abs(f-1) > 1e-12 {
		t.Fatalf("self fidelity = %v", f)
	}
	o := NewState(3)
	o.Apply1Q(circuit.Matrix1(circuit.X, 0), 0)
	if f := o.Fidelity(NewState(3)); f != 0 {
		t.Fatalf("orthogonal fidelity = %v", f)
	}
}

// Property: random circuits preserve the norm.
func TestUnitaryEvolutionPreservesNorm(t *testing.T) {
	prop := func(seed int64) bool {
		c := bench.QGAN(4, 2, seed)
		d := circuit.Decompose(c, circuit.Hybrid)
		s := RunIdeal(d)
		return math.Abs(s.Norm()-1) < 1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Decomposition end-to-end check: decomposed circuits produce the same
// state as the logical circuit up to global phase.
func TestDecomposedCircuitSameState(t *testing.T) {
	logical := circuit.New(3)
	logical.H(0).CNOT(0, 1).SWAP(1, 2).CNOT(2, 0)
	want := RunIdeal(logical)
	for _, strat := range []circuit.DecomposeStrategy{circuit.Hybrid, circuit.PureCZ, circuit.PureISwap} {
		got := RunIdeal(circuit.Decompose(logical, strat))
		if f := want.Fidelity(got); math.Abs(f-1) > 1e-9 {
			t.Fatalf("strategy %v: fidelity to logical state = %v", strat, f)
		}
	}
}

func compileFor(t *testing.T, strategy string, c *circuit.Circuit, sys *phys.System) *schedule.Schedule {
	t.Helper()
	s, err := schedule.ByName(strategy).Compile(&compile.Context{}, c, sys, schedule.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRunNoisyNoNoiseIsPerfect(t *testing.T) {
	sys := phys.NewSystem(topology.Grid(2, 2), phys.DefaultParams(), 1)
	c := bench.XEB(sys.Device, 3, 1)
	s := compileFor(t, "ColorDynamic", c, sys)
	res := RunNoisy(s, TrajectoryOptions{
		Shots: 5, Seed: 1,
		DisableCrosstalk: true, DisableDecoherence: true,
	})
	if math.Abs(res.MeanFidelity-1) > 1e-9 {
		t.Fatalf("noiseless trajectories should be perfect, got %v", res.MeanFidelity)
	}
}

func TestRunNoisyDegradesWithNoise(t *testing.T) {
	sys := phys.NewSystem(topology.Grid(2, 2), phys.DefaultParams(), 1)
	c := bench.XEB(sys.Device, 6, 1)
	s := compileFor(t, "ColorDynamic", c, sys)
	res := RunNoisy(s, DefaultTrajectoryOptions(7))
	if res.MeanFidelity >= 1 {
		t.Fatalf("noisy fidelity should be below 1, got %v", res.MeanFidelity)
	}
	if res.MeanFidelity <= 0 {
		t.Fatalf("fidelity collapsed to %v", res.MeanFidelity)
	}
	if res.Shots != 200 {
		t.Fatalf("shots = %d", res.Shots)
	}
}

func TestRunNoisyDeterministicBySeed(t *testing.T) {
	sys := phys.NewSystem(topology.Grid(2, 2), phys.DefaultParams(), 1)
	c := bench.XEB(sys.Device, 3, 1)
	s := compileFor(t, "ColorDynamic", c, sys)
	opt := DefaultTrajectoryOptions(11)
	opt.Shots = 20
	r1 := RunNoisy(s, opt)
	r2 := RunNoisy(s, opt)
	if r1.MeanFidelity != r2.MeanFidelity {
		t.Fatal("same seed should reproduce the same estimate")
	}
}

func TestAmplitudeDampingDrivesToGround(t *testing.T) {
	// A long idle schedule should relax an excited qubit toward |0⟩.
	params := phys.DefaultParams()
	params.T1, params.T2 = 200, 150 // very short for the test
	sys := phys.NewSystem(topology.Grid(2, 2), params, 1)
	c := circuit.New(4)
	c.X(0)
	for i := 0; i < 40; i++ {
		c.X(1) // stretch the schedule with physical gates on another qubit
	}
	s := compileFor(t, "Baseline U", c, sys)
	opt := DefaultTrajectoryOptions(3)
	opt.Shots = 300
	opt.DisableCrosstalk = true
	opt.Gate1Error, opt.Gate2Error = 0, 0
	res := RunNoisy(s, opt)
	// Ideal state keeps qubit 0 excited; damping should push fidelity well
	// below 1 after ~5 T1.
	if res.MeanFidelity > 0.3 {
		t.Fatalf("fidelity after ~5·T1 idle = %v, want strong decay", res.MeanFidelity)
	}
}

func TestXYRotationUnitary(t *testing.T) {
	for _, theta := range []float64{0, 0.3, math.Pi / 4, math.Pi / 2} {
		m := xyRotation(theta)
		if !circuit.IsUnitary4(m, 1e-12) {
			t.Fatalf("xyRotation(%v) not unitary", theta)
		}
	}
	// Transfer probability check: start |01⟩, expect sin²θ in |10⟩.
	theta := 0.4
	s := NewState(2)
	s.Apply1Q(circuit.Matrix1(circuit.X, 0), 1)
	s.Apply2Q(xyRotation(theta), 0, 1)
	want := math.Sin(theta) * math.Sin(theta)
	if got := s.Probability(2); math.Abs(got-want) > 1e-12 {
		t.Fatalf("transfer probability = %v, want %v", got, want)
	}
}
