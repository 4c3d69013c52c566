package schedule

import (
	"fastsc/internal/circuit"
	"fastsc/internal/compile"
	"fastsc/internal/graph"
	"fastsc/internal/phys"
	"fastsc/internal/topology"
)

// Gmon is Baseline G (Table I): tunable-qubit, tunable-coupler hardware in
// the style of Google's Sycamore. Couplers are switched off except for the
// pairs gated in the current slice, so spectral collisions between
// simultaneous gates are suppressed at the hardware level; the cost is
// fabrication complexity and sensitivity to coupler control noise, modeled
// by the Residual option (a fraction of the bare coupling that leaks
// through "off" couplers — Fig 12 sweeps it).
//
// Two-qubit layers follow the Sycamore tiling: the coupler set is
// partitioned into matchings (the ABCD patterns on a grid) and each slice
// activates gates from a single pattern.
type Gmon struct{}

// Name implements Compiler.
func (Gmon) Name() string { return "Baseline G" }

// Compile implements Compiler.
func (Gmon) Compile(ctx *compile.Context, c *circuit.Circuit, sys *phys.System, opts Options) (*Schedule, error) {
	b, err := newBuilder(ctx, "Baseline G", c, sys, opts)
	if err != nil {
		return nil, err
	}
	b.sched.Gmon = true
	// Sycamore's calibration gives every coupler its own interaction
	// frequency (the paper matches "the reported values in [2]"); we model
	// that as the static nearest-neighbor palette, so simultaneous gates
	// stay spectrally spread even when couplers leak (Fig 12).
	freqOf, err := staticPalette(b, sys)
	if err != nil {
		return nil, err
	}
	gc := sys.Device.Coupling
	pattern := tilingPatterns(sys.Device)
	patternOf := func(e graph.Edge) int {
		id, _ := gc.EdgeID(e.U, e.V)
		return pattern[id]
	}

	f := b.front
	for !f.Done() {
		ready := f.Ready()
		sortByCriticality(ready, b.crit)

		// Bucket ready two-qubit gates by tiling pattern; activate the
		// pattern carrying the most critical work this slice. Scores are
		// running totals, updated as each gate lands in its bucket (the
		// most-critical pattern at any prefix matches a full re-sum, so
		// the selection is unchanged).
		byPattern := make(map[int]int) // pattern -> summed criticality
		bestPattern, bestScore := -1, -1
		for _, idx := range ready {
			g := b.circ.Gates[idx]
			if !g.Kind.IsTwoQubit() {
				continue
			}
			p := patternOf(graph.NewEdge(g.Qubits[0], g.Qubits[1]))
			byPattern[p] += int(b.crit[idx])
			if byPattern[p] > bestScore {
				bestScore, bestPattern = byPattern[p], p
			}
		}

		var events []GateEvent
		for _, idx := range ready {
			g := b.circ.Gates[idx]
			if g.Kind.IsTwoQubit() {
				e := graph.NewEdge(g.Qubits[0], g.Qubits[1])
				if patternOf(e) != bestPattern {
					continue // wait for this pattern's turn
				}
				omega := freqOf(e)
				events = append(events, GateEvent{
					Gate: g, Duration: b.gateDuration(g, omega), Freq: omega, Color: 0,
				})
			} else {
				events = append(events, GateEvent{
					Gate: g, Duration: b.gateDuration(g, 0), Freq: b.park[g.Qubits[0]], Color: -1,
				})
			}
			f.Issue(idx)
		}
		colors := 0
		if bestPattern >= 0 && byPattern[bestPattern] > 0 {
			colors = 1
		}
		b.emitSlice(events, colors, 0)
	}
	return b.sched, nil
}

// tilingPatterns partitions the device couplers into matchings, returning
// the pattern of each coupler indexed by its dense edge id. On a grid this
// is the Sycamore ABCD pattern (horizontal/vertical alternating by
// parity); on arbitrary topologies it falls back to a greedy matching
// decomposition (proper edge coloring via the line graph).
func tilingPatterns(dev *topology.Device) []int {
	out := make([]int, dev.Coupling.NumEdges())
	if dev.IsGrid() {
		for id, e := range dev.Edges() {
			cu, cv := dev.Coords[e.U], dev.Coords[e.V]
			if cu.Row == cv.Row { // horizontal coupler
				out[id] = min(cu.Col, cv.Col) % 2
			} else { // vertical coupler
				out[id] = 2 + min(cu.Row, cv.Row)%2
			}
		}
		return out
	}
	lg, _ := graph.LineGraph(dev.Coupling)
	coloring := graph.WelshPowell(lg)
	for v, col := range coloring {
		if col >= 0 {
			out[v] = int(col)
		}
	}
	return out
}

// Registry returns the five strategies of Table I in presentation order.
func Registry() []Compiler {
	return []Compiler{Naive{}, Gmon{}, Uniform{}, Static{}, ColorDynamic{}}
}

// Extended returns Registry plus the extensions beyond the paper's Table I
// (currently GmonDynamic, the §VIII ColorDynamic-on-gmon combination).
func Extended() []Compiler {
	return append(Registry(), GmonDynamic{})
}

// ByName returns the compiler with the given Name (including extensions),
// or nil.
func ByName(name string) Compiler {
	for _, c := range Extended() {
		if c.Name() == name {
			return c
		}
	}
	return nil
}

// Names returns the strategy names in Registry order.
func Names() []string {
	rs := Registry()
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = r.Name()
	}
	return out
}
