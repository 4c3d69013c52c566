package schedule

import (
	"sort"

	"fastsc/internal/circuit"
	"fastsc/internal/compile"
	"fastsc/internal/graph"
	"fastsc/internal/phys"
	"fastsc/internal/smt"
)

// ColorDynamic is the paper's frequency-aware compiler (Algorithm 1):
// program-specific frequency assignment per time step via circuit slicing,
// noise-aware queueing (line 10–16), active-subgraph coloring (line 17–19),
// and SMT frequency optimization (line 20–22).
type ColorDynamic struct{}

// Name implements Compiler.
func (ColorDynamic) Name() string { return "ColorDynamic" }

// Compile implements Compiler.
func (ColorDynamic) Compile(ctx *compile.Context, c *circuit.Circuit, sys *phys.System, opts Options) (*Schedule, error) {
	return compileColorDynamic(ctx, "ColorDynamic", false, c, sys, opts)
}

// GmonDynamic is the §VIII extension: ColorDynamic's program-specific
// frequency tuning applied on tunable-coupler (gmon) hardware. Couplers are
// switched off outside the active set as in Baseline G, but simultaneous
// gates are additionally spread in frequency by the dynamic coloring, so
// residual coupler leakage (Fig 12) meets detuned rather than resonant
// neighbors. It is not part of the paper's Table I evaluation; see the
// ext-gmon experiment.
type GmonDynamic struct{}

// Name implements Compiler.
func (GmonDynamic) Name() string { return "ColorDynamic-G" }

// Compile implements Compiler.
func (GmonDynamic) Compile(ctx *compile.Context, c *circuit.Circuit, sys *phys.System, opts Options) (*Schedule, error) {
	return compileColorDynamic(ctx, "ColorDynamic-G", true, c, sys, opts)
}

//fastsc:hotpath the Algorithm 1 slice loop: per-slice state lives in one admission per compile and the shared Analysis; only what a Slice retains may be freshly allocated
func compileColorDynamic(ctx *compile.Context, name string, gmon bool, c *circuit.Circuit, sys *phys.System, opts Options) (*Schedule, error) {
	b, err := newBuilder(ctx, name, c, sys, opts)
	if err != nil {
		return nil, err
	}
	b.sched.Gmon = gmon
	opts = b.opts
	intCfg := b.part.InteractionConfig(sys.MeanAnharmonicity())
	// The interaction band fits only so many colors; combined with the
	// user's tunability budget (default 2, the Fig 11 sweet spot; -1 for
	// unlimited) this caps each slice's coloring.
	budget := maxColorsFeasible(ctx, intCfg, 16)
	if opts.MaxColors > 0 && opts.MaxColors < budget {
		budget = opts.MaxColors
	}

	var adm admission
	f := b.front
	for !f.Done() {
		adm.reset()
		ready := f.Ready()
		sortByCriticality(ready, b.crit)
		b.admitReady(ready, &adm)

		// Color the active subgraph of the crosstalk graph within the
		// color budget and solve its frequencies; gates whose vertices
		// cannot be colored are postponed (spectral -> temporal separation
		// trade). The whole slice solution is a pure function of the
		// active subgraph, so it is memoized across slices and jobs.
		sol, err := b.solveSlice(&adm, intCfg, budget)
		if err != nil {
			return nil, err
		}

		var events []GateEvent
		for i, sidx := range adm.selected {
			idx := int(sidx)
			g := b.circ.Gates[idx]
			if v := adm.selVerts[i]; v >= 0 {
				if deferredContains(sol.Deferred, int(v)) {
					continue // postponed by the color budget
				}
				col := int(sol.Coloring[v])
				freq := sol.Assign[col]
				events = append(events, GateEvent{
					Gate: g, Duration: b.gateDuration(g, freq), Freq: freq, Color: col,
				})
			} else {
				events = append(events, GateEvent{
					Gate: g, Duration: b.gateDuration(g, 0), Freq: b.park[g.Qubits[0]], Color: -1,
				})
			}
			f.Issue(idx)
		}
		b.emitSlice(events, sol.NumColors, sol.Delta)
	}
	return b.sched, nil
}

// admission holds one slice's admitted gates (Algorithm 1 lines 10–16).
// A compile allocates it once and resets it at the top of each slice, so
// its buffers grow to the widest slice and are reused after that.
type admission struct {
	active      []graph.Edge // couplers selected so far this slice
	activeVerts []int        // their crosstalk-graph vertices, same order
	keyVerts    []int        // sorted copy of activeVerts for the cache key
	selected    []int32      // gate indices admitted this slice
	selVerts    []int32      // per-selected coupler vertex (-1 for 1q gates)
}

func (a *admission) reset() {
	a.active = a.active[:0]
	a.activeVerts = a.activeVerts[:0]
	a.selected = a.selected[:0]
	a.selVerts = a.selVerts[:0]
}

// deferredContains reports whether v is in the sorted deferred list.
func deferredContains(deferred []int, v int) bool {
	i := sort.SearchInts(deferred, v)
	return i < len(deferred) && deferred[i] == v
}

// admitReady runs the queueing scheduler's admission loop (Algorithm 1
// lines 10–16) over the criticality-sorted ready list, recording the
// admitted gates in adm: most-critical first, postponing two-qubit gates
// whose crosstalk neighborhoods are already crowded (noise_conflict,
// §V-B6).
func (b *builder) admitReady(ready []int, adm *admission) {
	for _, idx := range ready {
		g := b.circ.Gates[idx]
		vert := int32(-1)
		if g.Kind.IsTwoQubit() {
			e := graph.NewEdge(g.Qubits[0], g.Qubits[1])
			if b.xg.ConflictDegree(g.Qubits[0], g.Qubits[1], adm.active) >= b.opts.ConflictLimit {
				continue // postpone to a later slice
			}
			v := mustVertex(b, e)
			adm.active = append(adm.active, e)
			adm.activeVerts = append(adm.activeVerts, v)
			vert = int32(v)
		}
		adm.selected = append(adm.selected, int32(idx))
		adm.selVerts = append(adm.selVerts, vert)
	}
}

// solveSlice produces the coloring + frequency assignment for the active
// gate set admitted in adm, through the per-slice cache when one is
// attached. The key is the exact sorted active vertex set of the
// interaction subgraph on this system.
func (b *builder) solveSlice(adm *admission, intCfg smt.Config, budget int) (compile.SliceSolution, error) {
	adm.keyVerts = append(adm.keyVerts[:0], adm.activeVerts...)
	sort.Ints(adm.keyVerts)
	key := compile.SliceKey(b.sig, b.xg.Distance, budget, adm.keyVerts)
	return b.ctx.Slice(key, func() (compile.SliceSolution, error) {
		return b.computeSlice(adm.keyVerts, intCfg, budget)
	})
}

// computeSlice is the whole-slice miss path (Algorithm 1 lines 17–22): it
// colors the active interaction subgraph within the color budget, runs one
// SMT solve for the color count, and maps colors to frequencies by
// occupancy (§V-B3). An empty subgraph needs no solve.
//
//fastsc:hotpath runs once per whole-slice cache miss (BenchmarkLargeCircuitCompile guards it); nothing here may allocate a map, call fmt, or box
func (b *builder) computeSlice(keyVerts []int, intCfg smt.Config, budget int) (compile.SliceSolution, error) {
	h := b.xg.G.Subgraph(keyVerts)
	coloring, deferred := graph.BoundedColoring(h, budget)
	sol := compile.SliceSolution{Coloring: coloring, Deferred: deferred, NumColors: coloring.NumColors()}
	if sol.NumColors == 0 {
		return sol, nil
	}
	freqs, delta, err := b.ctx.SolveSMT(sol.NumColors, intCfg)
	if err != nil {
		return compile.SliceSolution{}, err
	}
	sol.Assign = smt.AssignByOccupancy(coloring.ColorCounts(), freqs)
	sol.Delta = delta
	return sol, nil
}

func mustVertex(b *builder, e graph.Edge) int {
	v, ok := b.xg.VertexOf(e.U, e.V)
	if !ok {
		panic("schedule: gate on non-coupler " + e.String())
	}
	return v
}

// maxColorsFeasible probes the largest k for which the solver can place k
// frequencies in the band, up to cap. Feasibility is monotone in k — the
// greedy placement for k−1 frequencies is a prefix of the placement for k,
// so a feasible k implies every smaller count is feasible — which lets the
// probe gallop (2, 4, 8, …) to the first infeasible count and then
// binary-search the bracket: O(log cap) solves instead of O(cap). Solves
// (including the terminating infeasibility verdicts) are memoized through
// ctx.
func maxColorsFeasible(ctx *compile.Context, cfg smt.Config, cap int) int {
	feasible := func(k int) bool {
		_, _, err := ctx.SolveSMT(k, cfg)
		return err == nil
	}
	if cap < 2 || !feasible(2) {
		return 1
	}
	lo := 2       // highest count known feasible
	hi := cap + 1 // lowest count known (or assumed) infeasible
	for probe := 4; probe <= cap; probe *= 2 {
		if !feasible(probe) {
			hi = probe
			break
		}
		lo = probe
	}
	for lo+1 < hi {
		mid := (lo + hi) / 2
		if feasible(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}
