// Package mapping is the layout/routing subsystem: it places logical
// circuits onto physical devices (pluggable Placement strategies) and routes
// two-qubit gates through SWAP insertion (pluggable Router implementations).
// Qubit mapping is not the paper's contribution (it cites [34], [39]), but
// every benchmark needs it: QAOA's random MAX-CUT edges and BV's star-shaped
// CNOTs rarely land on couplers — and crosstalk-aware related work (CAMEL,
// Murali et al.) shows the mapping choice shifts which crosstalk pairs the
// scheduler must later serialize, so the stage is configurable end to end.
//
// # Routers
//
// A Router turns a logical circuit plus an initial Mapping into a Result: a
// physical circuit in which every two-qubit gate acts on a coupler, the
// final mapping, and per-gate provenance (Inserted). Two implementations
// ship:
//
//   - GreedyRouter — the classic greedy shortest-path SWAP inserter used by
//     baseline compilers: each uncoupled gate walks its operands together
//     along a shortest coupling path. It is the default and is pinned
//     gate-for-gate to the historical mapping.Route output: paths are the
//     lexicographically smallest shortest paths (exactly what BFS with
//     ascending neighbor exploration produced), resolved against the
//     device's cached graph.DistanceMatrix instead of a per-gate BFS
//     allocation.
//   - LookaheadRouter — a SABRE-style swap search: when the dependency
//     frontier is blocked, candidate SWAPs adjacent to the blocked gates
//     are scored by the summed post-swap distance of the frontier plus a
//     geometrically decaying term over an extended window of upcoming
//     two-qubit gates (window size and decay configurable). It typically
//     inserts substantially fewer SWAPs than the greedy router on
//     irregular interaction graphs (QAOA), at slightly higher routing
//     cost.
//
// # Placements
//
// Placement strategies compute the initial logical→physical embedding:
// identity (logical i on physical i), snake (boustrophedon order, the
// natural chain embedding), and degree (greedy degree-matching: logical
// qubits ranked by their circuit.Analysis interaction counts are seated on
// physical qubits ranked by coupling degree).
//
// # Determinism and sharing
//
// Every router and placement is deterministic: identical inputs produce
// identical Results gate for gate (candidate enumerations iterate sorted
// structures, ties break toward smaller ids). A Result is immutable after
// its router returns — the compile cache's route region shares one Result
// across every strategy of a batch job, so callers must never modify the
// routed circuit, the mappings, or the Inserted slice. On the no-SWAP fast
// path Final aliases the initial mapping rather than cloning it.
package mapping

import (
	"fmt"
	"sort"

	"fastsc/internal/circuit"
	"fastsc/internal/topology"
)

// Mapping is a bijection between logical and physical qubits.
type Mapping struct {
	LogToPhys []int
	PhysToLog []int
}

// Identity returns the identity mapping over n logical qubits on a device
// with at least n physical qubits.
func Identity(nLogical, nPhysical int) *Mapping {
	if nLogical > nPhysical {
		panic(fmt.Sprintf("mapping: %d logical qubits exceed %d physical", nLogical, nPhysical))
	}
	m := &Mapping{
		LogToPhys: make([]int, nLogical),
		PhysToLog: make([]int, nPhysical),
	}
	for p := range m.PhysToLog {
		m.PhysToLog[p] = -1
	}
	for l := 0; l < nLogical; l++ {
		m.LogToPhys[l] = l
		m.PhysToLog[l] = l
	}
	return m
}

// FromOrder places logical qubit i on physical qubit order[i].
func FromOrder(nLogical int, order []int, nPhysical int) *Mapping {
	if nLogical > len(order) {
		panic(fmt.Sprintf("mapping: order has %d entries for %d logical qubits", len(order), nLogical))
	}
	m := &Mapping{
		LogToPhys: make([]int, nLogical),
		PhysToLog: make([]int, nPhysical),
	}
	for p := range m.PhysToLog {
		m.PhysToLog[p] = -1
	}
	for l := 0; l < nLogical; l++ {
		p := order[l]
		if p < 0 || p >= nPhysical {
			panic(fmt.Sprintf("mapping: physical qubit %d out of range", p))
		}
		if m.PhysToLog[p] != -1 {
			panic(fmt.Sprintf("mapping: physical qubit %d assigned twice", p))
		}
		m.LogToPhys[l] = p
		m.PhysToLog[p] = l
	}
	return m
}

// Clone deep-copies the mapping.
func (m *Mapping) Clone() *Mapping {
	c := &Mapping{
		LogToPhys: make([]int, len(m.LogToPhys)),
		PhysToLog: make([]int, len(m.PhysToLog)),
	}
	copy(c.LogToPhys, m.LogToPhys)
	copy(c.PhysToLog, m.PhysToLog)
	return c
}

// SwapPhys updates the mapping after a routing SWAP between physical qubits
// a and b (either may currently be unoccupied).
func (m *Mapping) SwapPhys(a, b int) {
	la, lb := m.PhysToLog[a], m.PhysToLog[b]
	m.PhysToLog[a], m.PhysToLog[b] = lb, la
	if la != -1 {
		m.LogToPhys[la] = b
	}
	if lb != -1 {
		m.LogToPhys[lb] = a
	}
}

// SnakeOrder returns the device qubits in boustrophedon (snake) order by
// coordinates: row 0 left-to-right, row 1 right-to-left, and so on. Placing
// a chain along this order makes every consecutive logical pair physically
// coupled on a grid — the natural embedding for ISING and QGAN chains.
func SnakeOrder(dev *topology.Device) []int {
	qs := dev.QubitsSorted()
	sort.SliceStable(qs, func(i, j int) bool {
		ci, cj := dev.Coords[qs[i]], dev.Coords[qs[j]]
		if ci.Row != cj.Row {
			return ci.Row < cj.Row
		}
		if ci.Row%2 == 0 {
			return ci.Col < cj.Col
		}
		return ci.Col > cj.Col
	})
	return qs
}

// Result is a routed circuit over physical qubits. A Result is immutable
// once returned: the compile cache shares it read-only across jobs.
type Result struct {
	// Routed acts on the device's physical qubits; every two-qubit gate
	// touches a coupler.
	Routed *circuit.Circuit
	// Final is the logical-to-physical mapping after execution. When no
	// SWAPs were inserted it may alias the initial mapping the router was
	// given (the no-SWAP fast path skips the defensive clone).
	Final *Mapping
	// Inserted flags, per gate of Routed, whether the gate is a routing
	// SWAP added by the router (true) or a translated program gate.
	Inserted []bool
	// SwapCount is the number of routing SWAPs inserted.
	SwapCount int
}

// ApproxSize reports the Result's approximate in-memory footprint in bytes;
// the compile cache's size-aware eviction weighs route entries by it.
func (r *Result) ApproxSize() int {
	size := 128 + len(r.Inserted)
	if r.Routed != nil {
		// One Gate struct (~48 B) plus its operand slice (~16-32 B) per gate.
		size += 72 * len(r.Routed.Gates)
	}
	if r.Final != nil {
		size += 8 * (len(r.Final.LogToPhys) + len(r.Final.PhysToLog))
	}
	return size
}

// Route translates c onto dev starting from the given initial mapping
// (Identity when nil), inserting SWAPs along greedy shortest coupling
// paths. It is the historical entry point, equivalent to
// (&GreedyRouter{}).Route(c, nil, dev, initial); configurable callers
// should go through Plan.
func Route(c *circuit.Circuit, dev *topology.Device, initial *Mapping) (*Result, error) {
	return (&GreedyRouter{}).Route(c, nil, dev, initial)
}

// Plan is the full layout/routing pipeline: it computes the initial
// placement named by opts, then routes c with the configured router. ana
// may be nil; strategies that need the dependency analysis (the lookahead
// router, the degree placement) analyze c themselves when it is missing.
// Batch callers should pass the memoized analysis (compile.Context.Route
// does) so every strategy shares one.
func Plan(c *circuit.Circuit, ana *circuit.Analysis, dev *topology.Device, opts Options) (*Result, error) {
	opts = opts.WithDefaults()
	router, err := NewRouter(opts.Router)
	if err != nil {
		return nil, err
	}
	initial, err := InitialMapping(opts.Placement, c, ana, dev)
	if err != nil {
		return nil, err
	}
	return router.Route(c, ana, dev, initial)
}
