package phys

import (
	"fmt"
	"math/rand"
	"sync/atomic"

	"fastsc/internal/topology"
)

// System is a fully characterized device: the topology plus one Transmon per
// qubit (with fabrication spread applied) and one bare coupling strength per
// coupler. It is the hardware description consumed by the compiler.
//
// A System is immutable once in use: SensitivityAt memoizes values derived
// from Qubits, so a System must not be modified after its first
// SensitivityAt call (build a new one, as calib.Apply does, instead).
type System struct {
	Device *topology.Device
	Qubits []Transmon // indexed by qubit id
	// Coupling holds the bare g₀ per coupler in GHz, indexed by the dense
	// coupler id of Device.Coupling.EdgeID — i.e. the coupler's position in
	// Device.Edges(). The flat layout makes G0 a binary-search edge-id
	// lookup and G0ByID a direct index, with zero map probes on the
	// compile hot path.
	Coupling []float64
	Params   Params

	// sens is the flux-sensitivity memo behind SensitivityAt, created on
	// first use. It is derived from Qubits alone, which is why
	// compile.SystemSignature does not hash it.
	sens atomic.Pointer[sensMemo]
}

// NewSystem samples a System from the given parameters. Maximum frequencies
// are drawn from N(OmegaMax, OmegaSigma²) — the paper's model of fabrication
// variation and initial detuning (§VI-C) — using the provided seed, so a
// fixed seed reproduces the same chip.
func NewSystem(dev *topology.Device, p Params, seed int64) *System {
	rng := rand.New(rand.NewSource(seed))
	qubits := make([]Transmon, dev.Qubits)
	for q := range qubits {
		qubits[q] = Transmon{
			OmegaMax:  p.OmegaMax + p.OmegaSigma*rng.NormFloat64(),
			EC:        p.EC,
			Asymmetry: p.Asymmetry,
			T1:        p.T1,
			T2:        p.T2,
		}
	}
	coupling := make([]float64, dev.Coupling.NumEdges())
	for i := range coupling {
		coupling[i] = p.G0
	}
	return &System{Device: dev, Qubits: qubits, Coupling: coupling, Params: p}
}

// DefaultSystem builds a System with DefaultParams and a fixed seed derived
// from the device name, convenient for examples and tests.
func DefaultSystem(dev *topology.Device) *System {
	var seed int64 = 1
	for _, r := range dev.Name {
		seed = seed*31 + int64(r)
	}
	return NewSystem(dev, DefaultParams(), seed)
}

// G0 returns the bare coupling of the coupler between qubits a and b,
// resolved through the device's dense edge index (a binary search over the
// smaller endpoint's neighbor slice — no map probe). It panics if the
// qubits are not coupled: callers must only ask about physical couplers,
// and an uncoupled pair reaching this lookup is a compiler bug, not a
// recoverable condition.
//
//fastsc:hotpath gate-duration and noise math resolve couplings per gate; the panic path is the only formatting allowed here
func (s *System) G0(a, b int) float64 {
	id, ok := s.Device.Coupling.EdgeID(a, b)
	if !ok {
		panic(fmt.Sprintf("phys: qubits %d and %d are not coupled", a, b))
	}
	return s.Coupling[id]
}

// G0ByID returns the bare coupling of the coupler with the given dense id
// (its position in Device.Edges()). Hot loops that already hold a coupler
// id — static palettes, crosstalk weights, noise channels iterating
// Device.Edges() — use this to skip even the edge-id binary search. It
// panics (slice bounds) on ids outside [0, NumEdges).
//
//fastsc:hotpath direct dense-slice index; must stay alloc- and probe-free
func (s *System) G0ByID(id int32) float64 { return s.Coupling[id] }

// Transmon returns the transmon parameters of qubit q.
func (s *System) Transmon(q int) Transmon { return s.Qubits[q] }

// CommonRange returns the intersection of all qubits' tunable ranges —
// frequencies every qubit on the chip can reach.
func (s *System) CommonRange() (lo, hi float64) {
	lo, hi = 0, 1e18
	for _, t := range s.Qubits {
		l, h := t.TunableRange()
		if l > lo {
			lo = l
		}
		if h < hi {
			hi = h
		}
	}
	return lo, hi
}

// MeanAnharmonicity returns the average anharmonicity α (GHz, negative).
func (s *System) MeanAnharmonicity() float64 {
	if len(s.Qubits) == 0 {
		return 0
	}
	sum := 0.0
	for _, t := range s.Qubits {
		sum += t.Anharmonicity()
	}
	return sum / float64(len(s.Qubits))
}

// sensCap bounds the frequencies SensitivityAt memoizes per qubit. A
// schedule parks each qubit at one frequency and gates it at a few
// interaction colors: the Fig 9 sweep needs at most 12 per qubit, and
// every strategy at every color budget and crosstalk distance on one
// System needs 17. Past the cap, lookups are computed and not stored.
const sensCap = 32

// sensMemo holds one copy-on-write entry list per qubit. Readers load a
// list and scan it without locking; a writer publishes a longer copy with
// a compare-and-swap, so a list, once published, never changes.
type sensMemo struct {
	qubits []atomic.Pointer[[]sensEntry]
}

type sensEntry struct{ freq, sens float64 }

// SensitivityAt returns |dω01/dφ| (GHz per Φ₀) of qubit q tuned to freq:
// FluxSensitivity at the flux FluxFor finds, or 0 when freq is out of the
// qubit's tunable range. Results are memoized on the System, bit for bit
// equal to the direct computation, so every schedule, strategy and request
// sharing a System runs the 60-step FluxFor bisection once per (qubit,
// frequency). It is safe for concurrent use.
func (s *System) SensitivityAt(q int, freq float64) float64 {
	m := s.sens.Load()
	if m == nil {
		m = &sensMemo{qubits: make([]atomic.Pointer[[]sensEntry], len(s.Qubits))}
		if !s.sens.CompareAndSwap(nil, m) {
			m = s.sens.Load()
		}
	}
	slot := &m.qubits[q]
	cur := slot.Load()
	if v, ok := lookupSens(cur, freq); ok {
		return v
	}
	tr := s.Qubits[q]
	v := 0.0
	if phi, err := tr.FluxFor(freq); err == nil {
		v = tr.FluxSensitivity(phi)
	}
	for {
		var old []sensEntry
		if cur != nil {
			old = *cur
		}
		if len(old) >= sensCap {
			return v
		}
		next := append(old[:len(old):len(old)], sensEntry{freq, v}) // always a copy
		if slot.CompareAndSwap(cur, &next) {
			return v
		}
		// Another writer published first: retry on its list unless it
		// already stored this frequency.
		cur = slot.Load()
		if _, ok := lookupSens(cur, freq); ok {
			return v
		}
	}
}

func lookupSens(list *[]sensEntry, freq float64) (float64, bool) {
	if list == nil {
		return 0, false
	}
	for _, e := range *list {
		if e.freq == freq {
			return e.sens, true
		}
	}
	return 0, false
}
