// Package schedule implements the five compilation strategies of Table I:
// the paper's ColorDynamic frequency-aware compiler (Algorithm 1) and the
// four baselines it is evaluated against (naive, gmon/tunable-coupler,
// uniform-frequency serialization, and static frequency-aware). Each
// strategy lowers a decomposed native circuit into a timed Schedule: a
// sequence of slices, each holding the gates issued in that time step and
// the frequency of every qubit during it.
package schedule

import (
	"fmt"
	"math"

	"fastsc/internal/circuit"
	"fastsc/internal/compile"
	"fastsc/internal/graph"
	"fastsc/internal/phys"
	"fastsc/internal/smt"
	"fastsc/internal/xtalk"
)

// GateEvent is one gate placed in a slice.
type GateEvent struct {
	Gate circuit.Gate
	// Duration in ns.
	Duration float64
	// Freq is the interaction frequency for two-qubit gates (GHz); for
	// single-qubit gates it is the qubit's frequency during the gate.
	Freq float64
	// Color is the crosstalk-graph color of a two-qubit gate's coupler
	// (-1 for single-qubit gates or strategies that do not color).
	Color int
}

// Slice is one time step of the schedule.
type Slice struct {
	Start    float64 // ns
	Duration float64 // ns, including the flux-retune overhead
	Gates    []GateEvent
	// Freqs holds every qubit's frequency (GHz) during this slice, indexed
	// by qubit id; idle qubits sit at their parking frequency.
	Freqs []float64
	// ActiveCouplers lists the couplers executing two-qubit gates.
	ActiveCouplers []graph.Edge
	// Colors is the number of interaction colors used by this slice.
	Colors int
	// Delta is the frequency separation achieved by the solver for this
	// slice (0 when not applicable).
	Delta float64
}

// Schedule is a fully compiled program: timed slices plus the device
// context needed to evaluate it.
type Schedule struct {
	System   *phys.System
	Strategy string
	Slices   []Slice
	// TotalTime is the program duration in ns.
	TotalTime float64
	// Compiled is the decomposed native circuit that was scheduled.
	Compiled *circuit.Circuit
	// CompiledDepth is Compiled's ASAP dependency depth, taken from the
	// shared circuit.Analysis at build time so reporting never re-derives
	// it through the reference ASAPLayers implementation. It equals
	// Compiled.Depth() (pinned by test) and measures program parallelism;
	// Depth() counts emitted slices, which strategies may stretch.
	CompiledDepth int
	// Gmon marks schedules for tunable-coupler hardware: couplers not in
	// a slice's ActiveCouplers are switched off, retaining only Residual
	// times the bare coupling.
	Gmon     bool
	Residual float64
	// MaxColorsUsed is the largest per-slice color count.
	MaxColorsUsed int
	// ParkingFreqs holds each qubit's idle frequency, indexed by qubit id.
	ParkingFreqs []float64
}

// Depth returns the number of slices.
func (s *Schedule) Depth() int { return len(s.Slices) }

// Options tunes a compilation.
type Options struct {
	// XtalkDistance is the crosstalk-graph distance d (default 2, which
	// covers both direct and mediated next-neighbor crosstalk — the
	// generalization of §IV-C3; set 1 for the nearest-neighbor-only
	// construction of Fig 7).
	XtalkDistance int
	// MaxColors bounds the interaction colors per slice; gates that cannot
	// be colored within the budget are postponed, trading parallelism for
	// spectral separation (Fig 11). 0 selects the paper's sweet spot of 2
	// colors (two frequency sweet spots per qubit, §VII-D); -1 removes the
	// bound entirely.
	MaxColors int
	// ConflictLimit is the noise_conflict threshold of Algorithm 1: a
	// gate is postponed when at least this many of its crosstalk-graph
	// neighbors are already scheduled in the slice (default 4).
	ConflictLimit int
	// Decompose selects the native-gate family (default Hybrid).
	Decompose circuit.DecomposeStrategy
	// Residual is the gmon baseline's residual coupling factor r in
	// [0, 1): the fraction of bare coupling that leaks through a switched
	// off tunable coupler (default 0, the paper's conservative Fig 9
	// assumption; Fig 12 sweeps it).
	Residual float64
}

func (o Options) withDefaults() Options {
	if o.XtalkDistance <= 0 {
		o.XtalkDistance = 2
	}
	if o.MaxColors == 0 {
		o.MaxColors = 2
	}
	if o.ConflictLimit <= 0 {
		o.ConflictLimit = 4
	}
	return o
}

// Compiler turns a circuit into a timed schedule on a system. The injected
// compile.Context supplies the cross-job memoization cache and parallelism
// budget; the zero Context compiles without caching. It must not be nil.
type Compiler interface {
	Name() string
	Compile(ctx *compile.Context, c *circuit.Circuit, sys *phys.System, opts Options) (*Schedule, error)
}

// builder carries the state shared by every strategy: the decomposed
// circuit with its shared dependency analysis, the frequency partition,
// parking frequencies, and the crosstalk graph.
type builder struct {
	ctx  *compile.Context
	sys  *phys.System
	sig  string // content signature of sys, the cache-key prefix
	opts Options
	part smt.Partition
	circ *circuit.Circuit // decomposed, native
	// ana is the analyzed-circuit IR, shared read-only across every
	// strategy compiling the same circuit (memoized in the ctx's circ
	// region by content signature); front is this compilation's private
	// cursor view over it.
	ana   *circuit.Analysis
	front *circuit.Frontier
	crit  []int32 // ana's per-gate criticality (shared read-only)
	xg    *xtalk.Graph
	park  []float64 // qubit -> parking frequency (shared read-only)
	sched *Schedule
}

func newBuilder(ctx *compile.Context, name string, c *circuit.Circuit, sys *phys.System, opts Options) (*builder, error) {
	opts = opts.withDefaults()
	if c.NumQubits > sys.Device.Qubits {
		return nil, fmt.Errorf("schedule: circuit needs %d qubits, device has %d",
			c.NumQubits, sys.Device.Qubits)
	}
	lo, hi := sys.CommonRange()
	if hi <= lo {
		return nil, fmt.Errorf("schedule: empty common tunable range [%v, %v]", lo, hi)
	}
	part := smt.PartitionFor(lo, hi)
	for _, g := range c.Gates {
		if g.Kind.IsTwoQubit() && !sys.Device.Coupling.HasEdge(g.Qubits[0], g.Qubits[1]) {
			return nil, fmt.Errorf("schedule: gate %v acts on uncoupled qubits; route the circuit onto %q first",
				g, sys.Device.Name)
		}
	}
	dec := circuit.Decompose(c, opts.Decompose)
	// Widen the circuit to the full device so every qubit gets a parking
	// frequency even if unused.
	if dec.NumQubits < sys.Device.Qubits {
		wide := circuit.New(sys.Device.Qubits)
		wide.Gates = dec.Gates
		dec = wide
	}
	sig := compile.SystemSignature(sys)
	park, err := ctx.Parking(sig, func() ([]float64, error) {
		return parkingFrequencies(ctx, sys, part)
	})
	if err != nil {
		return nil, err
	}
	ana := ctx.Analysis(dec)
	b := &builder{
		ctx:   ctx,
		sys:   sys,
		sig:   sig,
		opts:  opts,
		part:  part,
		circ:  dec,
		ana:   ana,
		front: ana.NewFrontier(),
		crit:  ana.Criticality(),
		xg:    ctx.Xtalk(sys.Device, opts.XtalkDistance),
		park:  park,
		sched: &Schedule{
			System:        sys,
			Strategy:      name,
			Compiled:      dec,
			CompiledDepth: ana.Depth(),
			ParkingFreqs:  park,
			Residual:      opts.Residual,
		},
	}
	return b, nil
}

// parkingStagger is the half-width (GHz) of the deterministic within-class
// idle-frequency scatter, and parkingStaggerLevels the number of distinct
// offsets. Qubits of the same parking class sit at device distance two and
// couple through their common neighbor; staggering their idle frequencies
// detunes that mediated channel. The paper's example frequencies (Fig 14)
// show exactly this ±50 MHz scatter inside each checkerboard class.
const (
	parkingStagger       = 0.06
	parkingStaggerLevels = 5
)

// parkingFrequencies colors the connectivity graph (2 colors on bipartite
// devices), maps colors to well-separated base frequencies in the parking
// band (§IV-C1), and staggers qubits within each class. Sideband separation
// between classes is enforced by the solver.
func parkingFrequencies(ctx *compile.Context, sys *phys.System, part smt.Partition) ([]float64, error) {
	gc := sys.Device.Coupling
	col, ok := graph.TwoColor(gc)
	if !ok {
		col = graph.WelshPowell(gc)
	}
	k := col.NumColors()
	if k == 0 { // single-qubit device with no couplers
		k = 1
		col = make(graph.Coloring, sys.Device.Qubits) // all color 0
	}
	// Reserve the stagger margin at both band edges so offsets stay inside
	// the parking region.
	cfg := part.ParkingConfig(sys.MeanAnharmonicity())
	cfg.Lo += parkingStagger
	cfg.Hi -= parkingStagger
	freqs, _, err := ctx.SolveSMT(k, cfg)
	if err != nil {
		return nil, fmt.Errorf("schedule: parking assignment: %w", err)
	}
	park := make([]float64, sys.Device.Qubits)
	for q := 0; q < sys.Device.Qubits; q++ {
		base := freqs[int(col[q])%len(freqs)]
		park[q] = base + staggerOffset(sys, q)
	}
	return park, nil
}

// staggerOffset returns a deterministic offset in [−parkingStagger,
// +parkingStagger]. On devices with coordinates, the pattern (row + 2·col)
// mod 5 guarantees any two qubits at grid distance two receive different
// offsets, so same-class mediated pairs are always detuned.
func staggerOffset(sys *phys.System, q int) float64 {
	var idx int
	if c, ok := sys.Device.Coords[q]; ok {
		idx = ((c.Row+2*c.Col)%parkingStaggerLevels + parkingStaggerLevels) % parkingStaggerLevels
	} else {
		idx = (q * 3) % parkingStaggerLevels
	}
	step := 2 * parkingStagger / float64(parkingStaggerLevels-1)
	return -parkingStagger + float64(idx)*step
}

// gateDuration returns the duration in ns of a native gate executed at
// frequency freq. Two-qubit durations follow Appendix B with the coupling
// scaled to the interaction frequency (t_gate ~ 1/ω, §V-B3). Z-axis
// rotations are virtual frame updates and take no time.
func (b *builder) gateDuration(g circuit.Gate, freq float64) float64 {
	if !g.Kind.IsTwoQubit() {
		if g.Kind.IsVirtual() {
			return 0
		}
		return phys.SingleQubitGateTime
	}
	g0 := b.sys.G0(g.Qubits[0], g.Qubits[1])
	gAt := phys.CouplingAt(g0, freq, b.part.IntHi)
	switch g.Kind {
	case circuit.ISwap:
		return phys.ISwapTime(gAt)
	case circuit.SqrtISwap:
		return phys.SqrtISwapTime(gAt)
	case circuit.CZ:
		return phys.CZTime(gAt)
	}
	panic(fmt.Sprintf("schedule: non-native two-qubit gate %v reached the scheduler", g.Kind))
}

// emitSlice appends a slice holding the given events and advances the
// schedule's TotalTime past it. Every qubit starts at its parking
// frequency, and each two-qubit event writes its interaction frequency
// over both operands: a qubit is in at most one gate per slice.
func (b *builder) emitSlice(events []GateEvent, colors int, delta float64) {
	if len(events) == 0 {
		return
	}
	full := append([]float64(nil), b.park...)
	dur := 0.0
	var active []graph.Edge
	n2q := 0
	for _, ev := range events {
		if ev.Gate.Kind.IsTwoQubit() {
			n2q++
		}
	}
	if n2q > 0 {
		active = make([]graph.Edge, 0, n2q)
	}
	for _, ev := range events {
		if ev.Duration > dur {
			dur = ev.Duration
		}
		if ev.Gate.Kind.IsTwoQubit() {
			q0, q1 := ev.Gate.Qubits[0], ev.Gate.Qubits[1]
			full[q0], full[q1] = ev.Freq, ev.Freq
			active = append(active, graph.NewEdge(q0, q1))
		}
	}
	if dur > 0 {
		// Retuning overhead applies only when something physical happens;
		// a slice of virtual frame updates is free.
		dur += phys.FluxRampTime
	}
	b.sched.Slices = append(b.sched.Slices, Slice{
		Start:          b.sched.TotalTime,
		Duration:       dur,
		Gates:          events,
		Freqs:          full,
		ActiveCouplers: active,
		Colors:         colors,
		Delta:          delta,
	})
	if colors > b.sched.MaxColorsUsed {
		b.sched.MaxColorsUsed = colors
	}
	b.sched.TotalTime += dur
}

// sortByCriticality orders ready gate indices by descending criticality
// (Algorithm 1 line 11), breaking ties by program order.
func sortByCriticality(ready []int, crit []int32) {
	for i := 1; i < len(ready); i++ {
		for j := i; j > 0; j-- {
			a, b := ready[j-1], ready[j]
			if crit[b] > crit[a] || (crit[b] == crit[a] && b < a) {
				ready[j-1], ready[j] = b, a
			} else {
				break
			}
		}
	}
}

// Verify checks four structural schedule invariants: each slice starts
// where the previous one ended, no slice uses a qubit twice, the number of
// issued gates equals the compiled circuit's gate count, and the slice
// durations sum to TotalTime. It reads no frequency and no gate
// dependency, so it does not check the interaction band or gate order.
// Used by tests and available to callers as a safety net.
func (s *Schedule) Verify() error {
	count := 0
	now := 0.0
	used := make([]bool, s.System.Device.Qubits)
	for i, sl := range s.Slices {
		if math.Abs(sl.Start-now) > 1e-6 {
			return fmt.Errorf("schedule: slice %d starts at %v, want %v", i, sl.Start, now)
		}
		now += sl.Duration
		for q := range used {
			used[q] = false
		}
		for _, ev := range sl.Gates {
			count++
			for _, q := range ev.Gate.Qubits {
				if used[q] {
					return fmt.Errorf("schedule: slice %d reuses qubit %d", i, q)
				}
				used[q] = true
			}
		}
	}
	if count != s.Compiled.NumGates() {
		return fmt.Errorf("schedule: issued %d gates, compiled circuit has %d", count, s.Compiled.NumGates())
	}
	if math.Abs(now-s.TotalTime) > 1e-6 {
		return fmt.Errorf("schedule: total time %v, slices sum to %v", s.TotalTime, now)
	}
	return nil
}
