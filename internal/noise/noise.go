// Package noise estimates the worst-case success rate of a compiled
// schedule — the paper's heuristic metric (eq. 4):
//
//	P_success = Π_g (1 − ε_g) · Π_q (1 − ε_q)
//
// The gate crosstalk factors ε_g are evaluated per slice from the frequency
// configuration the compiler chose, channel by channel:
//
//   - Gate–gate channels: two simultaneous two-qubit gates whose couplers
//     are within crosstalk distance 2 exchange population with the
//     detuned-Rabi probability (eq. 5/6) at their interaction-frequency
//     difference δω. Distance-1 pairs (couplers sharing or neighboring a
//     qubit) interact at the bare coupling g₀; distance-2 pairs couple
//     through a mediating qubit with an effective NextNeighborFactor·g₀.
//     The ω12 sideband channels (shifted by the anharmonicity) are included.
//   - Spectator channels: an idle qubit directly coupled to an active gate
//     qubit exchanges population at the parked-vs-interaction detuning.
//   - Ambient channels: parked neighbor pairs interact weakly through their
//     always-on coupler; this is the background the frequency partition
//     (§V-B4) and checkerboard parking suppress.
//   - Flux-noise dephasing: qubits operated away from their sweet spots
//     dephase at a rate ∝ σ_Φ·|dω/dφ| (Fig 4, Appendix C).
//
// Decoherence ε_q follows §II-B1: ε_q(t) = (1 − e^{−t/T1})(1 − e^{−t/T2}).
// On gmon hardware (Baseline G) couplers outside the active set retain only
// Residual·g₀ of their coupling, which rescales every parasitic channel —
// with perfect deactivation (r = 0) only decoherence, flux noise and
// intrinsic gate error remain, the paper's conservative Fig 9 assumption.
package noise

import (
	"math"

	"fastsc/internal/graph"
	"fastsc/internal/phys"
	"fastsc/internal/schedule"
	"fastsc/internal/xtalk"
)

// Options tunes the evaluator.
type Options struct {
	// NextNeighborFactor scales the bare coupling for distance-2 gate–gate
	// channels (virtual exchange through the mediating qubit).
	NextNeighborFactor float64
	// SidebandWeight discounts sideband channels involving idle qubits,
	// whose |2⟩ population is small (active channels use weight 1).
	SidebandWeight float64
	// Gate1Error and Gate2Error are intrinsic per-gate error floors
	// (control imprecision independent of crosstalk; Kjaergaard et al.
	// report ≳99.5% two-qubit fidelity, i.e. ε₂ ≈ a few 10⁻³).
	Gate1Error, Gate2Error float64
	// FluxNoiseSigma is the RMS flux-noise amplitude in units of Φ₀; the
	// dephasing rate of a qubit at flux φ is 2π·σ_Φ·|dω/dφ|. Zero
	// disables the channel.
	FluxNoiseSigma float64
	// DisableAmbient turns off the idle-idle background (for ablations).
	DisableAmbient bool
}

// DefaultOptions returns the evaluation settings used for the paper
// reproduction.
func DefaultOptions() Options {
	return Options{
		NextNeighborFactor: 0.12,
		SidebandWeight:     0.15,
		Gate1Error:         0.0005,
		Gate2Error:         0.002,
		FluxNoiseSigma:     3e-7,
	}
}

// Report breaks a schedule's estimated worst-case success rate into its
// factors. Success is the product of the survival probabilities of every
// channel family.
type Report struct {
	Success float64
	// CrosstalkError aggregates gate-gate, spectator and ambient channels:
	// 1 − Π(1−ε).
	CrosstalkError float64
	// GateGateError, SpectatorError and AmbientError are the individual
	// crosstalk families (each 1 − Π(1−ε) over its channels).
	GateGateError  float64
	SpectatorError float64
	AmbientError   float64
	// FluxError is the flux-noise dephasing aggregate.
	FluxError float64
	// DecoherenceError is 1 − Π_q(1−ε_q), the Fig 10 metric.
	DecoherenceError float64
	// IntrinsicError is the control-error floor 1 − Π(1−ε_gate).
	IntrinsicError float64
	Duration       float64 // ns
	Depth          int     // slices
	NumGates       int
	Num2Q          int
}

// Evaluate computes the worst-case success estimate for a schedule. It
// builds no crosstalk graph: coupler pairs are classified by a point query
// over the connectivity graph (xtalk.Adjacent), and flux sensitivities come
// from the System's memo (phys.System.SensitivityAt), shared with every
// other schedule on the same System.
func Evaluate(s *schedule.Schedule, opt Options) *Report {
	n := s.System.Device.Qubits
	ev := &evaluator{
		s:     s,
		opt:   opt,
		edges: s.System.Device.Edges(),
		mark:  make([]bool, n),
		twoQ:  make([]twoQubitGate, 0, n/2),
	}
	return ev.run()
}

type evaluator struct {
	s   *schedule.Schedule
	opt Options
	// edges lists the device's couplers in dense-id order.
	edges []graph.Edge
	// mark is per-qubit scratch: during the slice loop it flags the
	// endpoints of the current slice's active couplers (set and cleared
	// per slice), afterwards the qubits the program touches.
	mark []bool
	// twoQ holds the current slice's two-qubit gates, reused across
	// slices.
	twoQ []twoQubitGate

	logGate float64
	logSpec float64
	logAmb  float64
	logFlux float64
}

// twoQubitGate is one two-qubit gate of a slice with its coupler and the
// coupler's dense id (-1 when the pair is not a device coupler).
type twoQubitGate struct {
	g  *schedule.GateEvent
	e  graph.Edge
	id int
}

//fastsc:hotpath the eq. 4 slice loop runs once per compile job, warm or cold; its per-slice state lives in evaluator-owned slices, so nothing here may allocate a map, call fmt, or box
func (ev *evaluator) run() *Report {
	s := ev.s
	rep := &Report{Duration: s.TotalTime, Depth: s.Depth()}
	numVirtual := 0

	for si := range s.Slices {
		sl := &s.Slices[si]
		for _, e := range sl.ActiveCouplers {
			ev.mark[e.U] = true
			ev.mark[e.V] = true
		}
		ev.gateGateChannels(sl)
		ev.spectatorChannels(sl)
		if !ev.opt.DisableAmbient {
			ev.ambientChannels(sl)
		}
		if ev.opt.FluxNoiseSigma > 0 {
			ev.fluxChannels(sl)
		}
		for _, e := range sl.ActiveCouplers {
			ev.mark[e.U] = false
			ev.mark[e.V] = false
		}
		for _, g := range sl.Gates {
			rep.NumGates++
			switch {
			case g.Gate.Kind.IsTwoQubit():
				rep.Num2Q++
			case g.Gate.Kind.IsVirtual():
				numVirtual++ // software frame updates carry no control error
			}
		}
	}

	// Decoherence over the full program duration for the qubits the
	// program touches, in ascending qubit order.
	for _, g := range s.Compiled.Gates {
		for _, q := range g.Qubits {
			ev.mark[q] = true
		}
	}
	logDec := 0.0
	for q, used := range ev.mark {
		if !used {
			continue
		}
		eq := s.System.Transmon(q).DecoherenceError(s.TotalTime)
		logDec += math.Log1p(-clampProb(eq))
	}
	logIntr := float64(rep.NumGates-rep.Num2Q-numVirtual)*math.Log1p(-ev.opt.Gate1Error) +
		float64(rep.Num2Q)*math.Log1p(-ev.opt.Gate2Error)

	rep.GateGateError = 1 - math.Exp(ev.logGate)
	rep.SpectatorError = 1 - math.Exp(ev.logSpec)
	rep.AmbientError = 1 - math.Exp(ev.logAmb)
	rep.CrosstalkError = 1 - math.Exp(ev.logGate+ev.logSpec+ev.logAmb)
	rep.FluxError = 1 - math.Exp(ev.logFlux)
	rep.DecoherenceError = 1 - math.Exp(logDec)
	rep.IntrinsicError = 1 - math.Exp(logIntr)
	rep.Success = math.Exp(ev.logGate + ev.logSpec + ev.logAmb + ev.logFlux + logDec + logIntr)
	return rep
}

// pairCoupling returns the effective parasitic coupling between two active
// couplers at crosstalk distance 1 or 2, honoring gmon coupler switching.
func (ev *evaluator) pairCoupling(a, b *twoQubitGate) float64 {
	s := ev.s
	dev := s.System.Device
	if a.id < 0 || b.id < 0 || !xtalk.Adjacent(dev, a.e, b.e, 2) {
		return 0
	}
	g0 := (s.System.G0ByID(int32(a.id)) + s.System.G0ByID(int32(b.id))) / 2
	if xtalk.Adjacent(dev, a.e, b.e, 1) {
		// Distance 1: a single off-path coupler connects the pairs.
		if s.Gmon {
			g0 *= s.Residual
		}
		return g0
	}
	// Distance 2: exchange through a mediating idle qubit crosses two
	// off-path couplers.
	g0 *= ev.opt.NextNeighborFactor
	if s.Gmon {
		g0 *= s.Residual * s.Residual
	}
	return g0
}

// gateGateChannels accumulates crosstalk between pairs of simultaneous
// two-qubit gates (the frequency-crowding errors of Fig 6).
//
//fastsc:hotpath per-slice channel of the eq. 4 loop (see run)
func (ev *evaluator) gateGateChannels(sl *schedule.Slice) {
	gc := ev.s.System.Device.Coupling
	ev.twoQ = ev.twoQ[:0]
	for i := range sl.Gates {
		g := &sl.Gates[i]
		if !g.Gate.Kind.IsTwoQubit() {
			continue
		}
		e := graph.NewEdge(g.Gate.Qubits[0], g.Gate.Qubits[1])
		id, ok := gc.EdgeID(e.U, e.V)
		if !ok {
			id = -1
		}
		ev.twoQ = append(ev.twoQ, twoQubitGate{g: g, e: e, id: id})
	}
	for i := range ev.twoQ {
		a := &ev.twoQ[i]
		for j := i + 1; j < len(ev.twoQ); j++ {
			b := &ev.twoQ[j]
			g := ev.pairCoupling(a, b)
			if g == 0 {
				continue
			}
			tau := math.Min(a.g.Duration, b.g.Duration)
			ec := ev.s.System.Transmon(a.e.U).EC
			delta := a.g.Freq - b.g.Freq
			eps := phys.TransitionProbability(g, delta, tau)
			// Active qubits are excited, so sideband channels carry full
			// weight and the √2 two-photon enhancement.
			eps += phys.TransitionProbability(math.Sqrt2*g, delta-ec, tau)
			eps += phys.TransitionProbability(math.Sqrt2*g, delta+ec, tau)
			ev.logGate += math.Log1p(-clampProb(eps))
		}
	}
}

// spectatorChannels accumulates exchange between each active gate qubit and
// its idle direct neighbors. The coupler to an idle neighbor is never
// active (an active coupler's endpoints are both busy), so on gmon
// hardware it always carries only the residual coupling.
//
//fastsc:hotpath per-slice channel of the eq. 4 loop (see run)
func (ev *evaluator) spectatorChannels(sl *schedule.Slice) {
	s := ev.s
	busy := ev.mark
	gc := s.System.Device.Coupling
	for _, e := range sl.ActiveCouplers {
		for _, q := range [2]int{e.U, e.V} {
			for _, w := range gc.Adj(q) {
				spec := int(w)
				if busy[spec] || e.Has(spec) {
					continue
				}
				g0 := s.System.G0(q, spec)
				if s.Gmon {
					g0 *= s.Residual
				}
				if g0 == 0 {
					continue
				}
				fq, fs := sl.Freqs[q], sl.Freqs[spec]
				ec := s.System.Transmon(q).EC
				tau := sl.Duration
				eps := phys.TransitionProbability(g0, fq-fs, tau)
				sb := phys.TransitionProbability(math.Sqrt2*g0, (fq-ec)-fs, tau) +
					phys.TransitionProbability(math.Sqrt2*g0, fq-(fs-ec), tau)
				eps += ev.opt.SidebandWeight * sb
				ev.logSpec += math.Log1p(-clampProb(eps))
			}
		}
	}
}

// ambientChannels accumulates the idle-idle background through couplers
// whose both endpoints are parked.
//
//fastsc:hotpath per-slice channel of the eq. 4 loop (see run)
func (ev *evaluator) ambientChannels(sl *schedule.Slice) {
	s := ev.s
	busy := ev.mark
	for id, e := range ev.edges {
		if busy[e.U] || busy[e.V] {
			continue // spectator/gate channels cover these
		}
		g0 := s.System.G0ByID(int32(id))
		if s.Gmon {
			g0 *= s.Residual
		}
		if g0 == 0 {
			continue
		}
		fu, fv := sl.Freqs[e.U], sl.Freqs[e.V]
		ec := s.System.Transmon(e.U).EC
		tau := sl.Duration
		eps := phys.TransitionProbability(g0, fu-fv, tau)
		sb := phys.TransitionProbability(math.Sqrt2*g0, (fu-ec)-fv, tau) +
			phys.TransitionProbability(math.Sqrt2*g0, fu-(fv-ec), tau)
		eps += ev.opt.SidebandWeight * sb
		ev.logAmb += math.Log1p(-clampProb(eps))
	}
}

// fluxChannels accumulates dephasing from flux noise for qubits operated
// away from their sweet spots.
//
//fastsc:hotpath per-slice channel of the eq. 4 loop (see run)
func (ev *evaluator) fluxChannels(sl *schedule.Slice) {
	s := ev.s
	for q := 0; q < s.System.Device.Qubits; q++ {
		sens := s.System.SensitivityAt(q, sl.Freqs[q])
		if sens == 0 {
			continue
		}
		rate := phys.TwoPi * ev.opt.FluxNoiseSigma * sens // GHz
		eps := 1 - math.Exp(-rate*sl.Duration)
		ev.logFlux += math.Log1p(-clampProb(eps))
	}
}

func clampProb(p float64) float64 {
	if p < 0 {
		return 0
	}
	if p > 0.999999 {
		return 0.999999
	}
	return p
}
