package mapping

import (
	"fmt"
	"slices"

	"fastsc/internal/circuit"
	"fastsc/internal/graph"
	"fastsc/internal/topology"
)

// Router algorithm names accepted by RouterConfig.Algorithm.
const (
	// RouterGreedy is the greedy shortest-path SWAP inserter (the default;
	// the empty string selects it too).
	RouterGreedy = "greedy"
	// RouterLookahead is the SABRE-style lookahead swap search.
	RouterLookahead = "lookahead"
)

// Lookahead tuning defaults.
const (
	// DefaultLookaheadWindow is the number of upcoming two-qubit gates the
	// lookahead router's extended term scores.
	DefaultLookaheadWindow = 16
	// DefaultLookaheadDecay is the geometric decay per extended-window
	// position.
	DefaultLookaheadDecay = 0.6
)

// RouterConfig selects and tunes a routing algorithm. It is part of the
// compile cache's route key (compile.RouteKey), so every field must feed
// the key — the reflection guard in compile/key_test.go pins the layout.
type RouterConfig struct {
	// Algorithm names the router: RouterGreedy (default; "" selects it) or
	// RouterLookahead.
	Algorithm string
	// Window is the lookahead router's extended-window size: how many
	// upcoming two-qubit gates beyond the blocked frontier contribute to a
	// candidate SWAP's score. 0 selects DefaultLookaheadWindow; ignored by
	// the greedy router.
	Window int
	// Decay is the geometric weight decay per extended-window position, in
	// (0, 1). 0 selects DefaultLookaheadDecay; ignored by the greedy
	// router.
	Decay float64
}

// Options is the full layout/routing configuration of one Plan invocation:
// the placement strategy plus the router. The compile cache keys routed
// results by it (alongside the circuit and device signatures).
type Options struct {
	// Placement names the initial-layout strategy: PlaceIdentity (default;
	// "" selects it), PlaceSnake or PlaceDegree.
	Placement string
	// Router selects and tunes the routing algorithm.
	Router RouterConfig
}

// WithDefaults returns opts with every zero field replaced by its default,
// so that equivalent configurations normalize to one cache key.
func (o Options) WithDefaults() Options {
	if o.Placement == "" {
		o.Placement = PlaceIdentity
	}
	o.Router = o.Router.withDefaults()
	return o
}

func (rc RouterConfig) withDefaults() RouterConfig {
	if rc.Algorithm == "" {
		rc.Algorithm = RouterGreedy
	}
	if rc.Algorithm != RouterLookahead {
		// Tuning fields are meaningless for the greedy router; zero them so
		// greedy configs differing only in stale tuning share a cache key.
		rc.Window, rc.Decay = 0, 0
		return rc
	}
	if rc.Window <= 0 {
		rc.Window = DefaultLookaheadWindow
	}
	// The negated-range form also maps NaN to the default, so a poisoned
	// decay can neither disable the scoring heuristic nor fragment the
	// route cache key.
	if !(rc.Decay > 0 && rc.Decay < 1) {
		rc.Decay = DefaultLookaheadDecay
	}
	return rc
}

// NeedsAnalysis reports whether the configuration reads the circuit's
// dependency analysis (the lookahead router and the degree placement do).
// Callers holding a memoizing cache use it to decide whether to resolve
// the shared Analysis before Plan.
func (o Options) NeedsAnalysis() bool {
	return o.Router.Algorithm == RouterLookahead || o.Placement == PlaceDegree
}

// Router plans SWAP insertion: it translates a logical circuit onto a
// device's physical qubits starting from an initial mapping, so that every
// two-qubit gate of the result acts on a coupler.
//
// Contract: the returned Result is immutable; routing is deterministic
// (identical inputs yield identical gate lists); ana may be nil, in which
// case implementations that need the dependency analysis compute it
// themselves; initial may be nil (identity) and is never mutated, though
// Result.Final may alias it when no SWAPs were inserted.
type Router interface {
	Name() string
	Route(c *circuit.Circuit, ana *circuit.Analysis, dev *topology.Device, initial *Mapping) (*Result, error)
}

// NewRouter returns the router named by cfg.
func NewRouter(cfg RouterConfig) (Router, error) {
	cfg = cfg.withDefaults()
	switch cfg.Algorithm {
	case RouterGreedy:
		return &GreedyRouter{}, nil
	case RouterLookahead:
		return &LookaheadRouter{Window: cfg.Window, Decay: cfg.Decay}, nil
	}
	return nil, fmt.Errorf("mapping: unknown router %q (want %q or %q)",
		cfg.Algorithm, RouterGreedy, RouterLookahead)
}

// RouterNames lists the selectable router algorithms.
func RouterNames() []string { return []string{RouterGreedy, RouterLookahead} }

// routeState is the mutable working set of one routing call: the output
// circuit under construction and the copy-on-write current mapping.
type routeState struct {
	c        *circuit.Circuit
	dev      *topology.Device
	out      *circuit.Circuit
	inserted []bool
	swaps    int
	m        *Mapping
	// owned reports whether m is this call's private copy. The initial
	// mapping is cloned lazily on the first SWAP, so the routing of an
	// already-embedded circuit allocates no mapping at all.
	owned bool
}

func newRouteState(c *circuit.Circuit, dev *topology.Device, initial *Mapping) (*routeState, error) {
	if c.NumQubits > dev.Qubits {
		return nil, fmt.Errorf("mapping: circuit needs %d qubits, device %q has %d",
			c.NumQubits, dev.Name, dev.Qubits)
	}
	s := &routeState{c: c, dev: dev, out: circuit.New(dev.Qubits)}
	// Preallocate for the common case of little or no routing; SWAP-heavy
	// circuits grow these by the usual append doubling.
	s.out.Gates = make([]circuit.Gate, 0, len(c.Gates))
	s.inserted = make([]bool, 0, len(c.Gates))
	if initial == nil {
		s.m, s.owned = Identity(c.NumQubits, dev.Qubits), true
	} else {
		s.m, s.owned = initial, false
	}
	return s, nil
}

// swap emits a routing SWAP between physical qubits a and b, cloning the
// borrowed initial mapping on first use.
func (s *routeState) swap(a, b int) {
	if !s.owned {
		s.m, s.owned = s.m.Clone(), true
	}
	s.out.SWAP(a, b)
	s.inserted = append(s.inserted, true)
	s.m.SwapPhys(a, b)
	s.swaps++
}

// emit appends the physical translation of program gate g at the given
// physical operands.
func (s *routeState) emit1q(g circuit.Gate) {
	s.out.Add(circuit.Gate{Kind: g.Kind, Qubits: []int{s.m.LogToPhys[g.Qubits[0]]}, Theta: g.Theta})
	s.inserted = append(s.inserted, false)
}

func (s *routeState) emit2q(g circuit.Gate, pa, pb int) {
	s.out.Add(circuit.Gate{Kind: g.Kind, Qubits: []int{pa, pb}, Theta: g.Theta})
	s.inserted = append(s.inserted, false)
}

func (s *routeState) result() *Result {
	return &Result{Routed: s.out, Final: s.m, Inserted: s.inserted, SwapCount: s.swaps}
}

// GreedyRouter inserts SWAPs along greedy shortest coupling paths: each
// two-qubit gate on uncoupled operands walks its first operand toward the
// second along the lexicographically smallest shortest path, stopping one
// hop short. This reproduces, gate for gate, the classic BFS-based router
// (BFS with ascending neighbor exploration finds exactly the lex-smallest
// shortest path), but resolves every hop against the device's cached
// DistanceMatrix — no per-gate path allocation, no per-gate BFS.
type GreedyRouter struct{}

// Name implements Router.
func (*GreedyRouter) Name() string { return RouterGreedy }

// Route implements Router. ana is unused (the greedy policy is purely
// program-ordered) and may be nil.
func (*GreedyRouter) Route(c *circuit.Circuit, ana *circuit.Analysis, dev *topology.Device, initial *Mapping) (*Result, error) {
	s, err := newRouteState(c, dev, initial)
	if err != nil {
		return nil, err
	}
	gc := dev.Coupling
	var dm *graph.DistanceMatrix // resolved on the first uncoupled gate
	for _, g := range c.Gates {
		if g.Arity() == 1 {
			s.emit1q(g)
			continue
		}
		pa, pb := s.m.LogToPhys[g.Qubits[0]], s.m.LogToPhys[g.Qubits[1]]
		if !gc.HasEdge(pa, pb) {
			if dm == nil {
				dm = gc.Distances()
			}
			if err := walkGreedy(s, dm, pa, pb); err != nil {
				return nil, err
			}
			pa = s.m.LogToPhys[g.Qubits[0]]
			pb = s.m.LogToPhys[g.Qubits[1]]
		}
		s.emit2q(g, pa, pb)
	}
	return s.result(), nil
}

// walkGreedy swaps physical qubit pa toward pb along the lexicographically
// smallest shortest coupling path, stopping one hop short — the greedy
// router's whole policy and the lookahead router's stuck fallback.
func walkGreedy(s *routeState, dm *graph.DistanceMatrix, pa, pb int) error {
	if dm.At(pa, pb) == graph.Unreachable {
		return fmt.Errorf("mapping: no path between physical qubits %d and %d on %q",
			pa, pb, s.dev.Name)
	}
	for cur := pa; dm.At(cur, pb) > 1; {
		next := stepToward(s.dev.Coupling, dm, cur, pb)
		s.swap(cur, next)
		cur = next
	}
	return nil
}

// stepToward returns the smallest neighbor of cur that is one step closer
// to dst — the next vertex of the lexicographically smallest shortest path.
func stepToward(gc *graph.Graph, dm *graph.DistanceMatrix, cur, dst int) int {
	want := dm.At(cur, dst) - 1
	for _, u := range gc.Adj(cur) { // ascending
		if dm.At(int(u), dst) == want {
			return int(u)
		}
	}
	panic(fmt.Sprintf("mapping: no neighbor of %d approaches %d (inconsistent distance matrix)", cur, dst))
}

// LookaheadRouter is a SABRE-style swap search (Li, Ding, Xie, ASPLOS
// 2019): gates are issued from the dependency frontier as soon as their
// operands are coupled; when every frontier two-qubit gate is blocked, the
// router scores all candidate SWAPs adjacent to a blocked gate by the
// summed post-swap distance of the frontier plus a geometrically decaying
// term over the next Window upcoming two-qubit gates, and applies the best
// one. Distances come from the device's cached DistanceMatrix; the gate
// order within the frontier follows the circuit.Analysis CSR streams.
//
// The search never cycles: a SWAP that undoes the immediately preceding
// one is excluded while the frontier makes no progress, and after
// stuckLimit consecutive SWAPs without issuing a gate the router falls
// back to walking the oldest blocked gate's greedy shortest path, which
// strictly reduces its distance.
type LookaheadRouter struct {
	// Window is the extended-window size (how many upcoming two-qubit
	// gates are scored); <= 0 selects DefaultLookaheadWindow.
	Window int
	// Decay is the geometric decay per window position, in (0, 1); values
	// outside select DefaultLookaheadDecay.
	Decay float64
}

// Name implements Router.
func (*LookaheadRouter) Name() string { return RouterLookahead }

// lookScratch holds the reusable buffers of one lookahead routing call.
type lookScratch struct {
	blocked []int32      // frontier gate indices currently blocked
	window  []int32      // upcoming 2q gate indices for the extended term
	cand    []graph.Edge // candidate swaps, deduplicated and sorted
	done    []bool       // per gate: issued
}

// Route implements Router. ana may be nil; it is computed when missing.
func (r *LookaheadRouter) Route(c *circuit.Circuit, ana *circuit.Analysis, dev *topology.Device, initial *Mapping) (*Result, error) {
	s, err := newRouteState(c, dev, initial)
	if err != nil {
		return nil, err
	}
	if ana == nil {
		ana = circuit.Analyze(c)
	}
	// One normalization authority: the same clamping that feeds the cache
	// key, so a directly constructed router can never route differently
	// from what RouteKey names.
	cfg := RouterConfig{Algorithm: RouterLookahead, Window: r.Window, Decay: r.Decay}.withDefaults()
	window, decay := cfg.Window, cfg.Decay

	gc := dev.Coupling
	dm := gc.Distances()
	front := ana.NewFrontier()
	scr := &lookScratch{done: make([]bool, len(c.Gates))}

	// stuckLimit bounds consecutive SWAPs without frontier progress before
	// the deterministic greedy fallback; one device diameter of swaps is
	// always enough to bring any single pair together.
	stuckLimit := dev.Qubits
	if stuckLimit < 4 {
		stuckLimit = 4
	}
	stuck := 0
	lastSwap := graph.Edge{U: -1, V: -1}
	// cursor trails the first unissued gate, so extended-window scans are
	// amortized O(gates) over the whole call.
	cursor := 0

	issue := func(idx int, g circuit.Gate) {
		if g.Arity() == 1 {
			s.emit1q(g)
		} else {
			s.emit2q(g, s.m.LogToPhys[g.Qubits[0]], s.m.LogToPhys[g.Qubits[1]])
		}
		front.Issue(idx)
		scr.done[idx] = true
	}

	for !front.Done() {
		ready := front.Ready() // ascending program order
		progressed := false
		scr.blocked = scr.blocked[:0]
		for _, idx := range ready {
			g := c.Gates[idx]
			if g.Arity() == 1 {
				issue(idx, g)
				progressed = true
				continue
			}
			if gc.HasEdge(s.m.LogToPhys[g.Qubits[0]], s.m.LogToPhys[g.Qubits[1]]) {
				issue(idx, g)
				progressed = true
			} else {
				scr.blocked = append(scr.blocked, int32(idx))
			}
		}
		if progressed {
			stuck = 0
			lastSwap = graph.Edge{U: -1, V: -1}
			continue
		}
		// Every ready gate is a blocked two-qubit gate. Pick a SWAP.
		stuck++
		if stuck > stuckLimit {
			// Deterministic escape hatch: walk the oldest blocked gate's
			// operands together along the greedy shortest path.
			g := c.Gates[scr.blocked[0]]
			if err := walkGreedy(s, dm, s.m.LogToPhys[g.Qubits[0]], s.m.LogToPhys[g.Qubits[1]]); err != nil {
				return nil, err
			}
			stuck = 0
			continue
		}
		if err := r.chooseSwap(s, ana, dm, scr, window, decay, cursor, &lastSwap); err != nil {
			return nil, err
		}
		// Advance the window cursor past fully issued prefix.
		for cursor < len(c.Gates) && scr.done[cursor] {
			cursor++
		}
	}
	return s.result(), nil
}

// chooseSwap scores every candidate SWAP adjacent to a blocked frontier
// gate and applies the best-scoring one (ties break toward the smaller
// edge). The score of a candidate is the summed post-swap coupling
// distance of the blocked frontier gates plus Decay^(k+1)-weighted
// distances of the next Window unissued two-qubit gates in program order.
//
//fastsc:hotpath runs once per inserted SWAP (BenchmarkRoute guards it); candidate/window buffers come from the Route call's lookScratch and the scoring loop must not allocate
func (r *LookaheadRouter) chooseSwap(s *routeState, ana *circuit.Analysis, dm *graph.DistanceMatrix,
	scr *lookScratch, window int, decay float64, cursor int, lastSwap *graph.Edge) error {

	gc := s.dev.Coupling
	// Candidate swaps: every coupler touching an operand of a blocked gate.
	scr.cand = scr.cand[:0]
	for _, idx := range scr.blocked {
		g := s.c.Gates[idx]
		for _, lq := range g.Qubits {
			p := s.m.LogToPhys[lq]
			for _, u := range gc.Adj(p) {
				e := graph.NewEdge(p, int(u))
				if e != *lastSwap {
					scr.cand = append(scr.cand, e)
				}
			}
		}
	}
	if len(scr.cand) == 0 {
		if lastSwap.U < 0 {
			// No couplers touch any blocked operand at all (isolated
			// qubits): the gate can never be routed.
			g := s.c.Gates[scr.blocked[0]]
			//fastsc:ignore hotalloc -- cold path: unroutable circuit aborts the compile; formatting the error here is fine
			return fmt.Errorf("mapping: no path between physical qubits %d and %d on %q",
				s.m.LogToPhys[g.Qubits[0]], s.m.LogToPhys[g.Qubits[1]], s.dev.Name)
		}
		// Every candidate was the excluded previous swap (degenerate tiny
		// device); permit it rather than stalling.
		scr.cand = append(scr.cand, *lastSwap)
	}
	slices.SortFunc(scr.cand, func(a, b graph.Edge) int {
		if a.U != b.U {
			return a.U - b.U
		}
		return a.V - b.V
	})
	// Deduplicate (sorted, so duplicates are adjacent).
	uniq := scr.cand[:0]
	for i, e := range scr.cand {
		if i == 0 || e != scr.cand[i-1] {
			uniq = append(uniq, e)
		}
	}
	scr.cand = uniq

	// Extended window: the next `window` unissued two-qubit gates in
	// program order, frontier gates excluded (they are the base term).
	scr.window = scr.window[:0]
	inBlocked := func(idx int) bool {
		for _, b := range scr.blocked {
			if int(b) == idx {
				return true
			}
		}
		return false
	}
	for i := cursor; i < len(s.c.Gates) && len(scr.window) < window; i++ {
		if scr.done[i] || inBlocked(i) {
			continue
		}
		if _, q1 := ana.Operands(i); q1 >= 0 {
			scr.window = append(scr.window, int32(i))
		}
	}

	// distAfter returns the coupling distance of gate idx's operands under
	// the hypothetical swap (a, b).
	distAfter := func(idx int, a, b int) float64 {
		g := s.c.Gates[idx]
		pa, pb := s.m.LogToPhys[g.Qubits[0]], s.m.LogToPhys[g.Qubits[1]]
		if pa == a {
			pa = b
		} else if pa == b {
			pa = a
		}
		if pb == a {
			pb = b
		} else if pb == b {
			pb = a
		}
		return float64(dm.At(pa, pb))
	}

	best, bestScore := graph.Edge{U: -1, V: -1}, 0.0
	for _, e := range scr.cand {
		score := 0.0
		for _, idx := range scr.blocked {
			score += distAfter(int(idx), e.U, e.V)
		}
		w := decay
		for _, idx := range scr.window {
			score += w * distAfter(int(idx), e.U, e.V)
			w *= decay
		}
		if best.U < 0 || score < bestScore {
			best, bestScore = e, score
		}
	}
	s.swap(best.U, best.V)
	*lastSwap = best
	return nil
}
