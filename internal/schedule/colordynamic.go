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

//fastsc:hotpath the Algorithm 1 slice loop: per-slice state lives in the pooled sliceScratch and the shared Analysis; only what a Slice retains may be freshly allocated
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

	scr := b.scr
	f := b.front
	for !f.Done() {
		ready := f.Ready()
		sortByCriticality(ready, b.crit)
		b.admitReady(ready, scr)

		// Color the active subgraph of the crosstalk graph within the
		// color budget and solve its frequencies; gates whose vertices
		// cannot be colored are postponed (spectral -> temporal separation
		// trade). The whole slice solution is a pure function of the
		// active subgraph, so it is memoized across slices and jobs.
		sol, err := b.solveSlice(scr, intCfg, budget)
		if err != nil {
			b.abort()
			return nil, err
		}

		var events []GateEvent
		for i, sidx := range scr.selected {
			idx := int(sidx)
			g := b.circ.Gates[idx]
			if v := scr.selVerts[i]; v >= 0 {
				if deferredContains(sol.Deferred, int(v)) {
					continue // postponed by the color budget
				}
				col := int(sol.Coloring[v])
				freq := sol.Assign[col]
				b.setFreq(g.Qubits[0], freq)
				b.setFreq(g.Qubits[1], freq)
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
	return b.finish(), nil
}

// deferredContains reports whether v is in the sorted deferred list.
func deferredContains(deferred []int, v int) bool {
	i := sort.SearchInts(deferred, v)
	return i < len(deferred) && deferred[i] == v
}

// admitReady runs the queueing scheduler's admission loop (Algorithm 1
// lines 10–16) over the criticality-sorted ready list, staging the admitted
// gates in scr: most-critical first, postponing two-qubit gates whose
// crosstalk neighborhoods are already crowded (noise_conflict, §V-B6).
func (b *builder) admitReady(ready []int, scr *sliceScratch) {
	for _, idx := range ready {
		g := b.circ.Gates[idx]
		vert := int32(-1)
		if g.Kind.IsTwoQubit() {
			e := graph.NewEdge(g.Qubits[0], g.Qubits[1])
			if b.xg.ConflictDegree(g.Qubits[0], g.Qubits[1], scr.active) >= b.opts.ConflictLimit {
				continue // postpone to a later slice
			}
			v := mustVertex(b, e)
			scr.active = append(scr.active, e)
			scr.activeVerts = append(scr.activeVerts, v)
			vert = int32(v)
		}
		scr.selected = append(scr.selected, int32(idx))
		scr.selVerts = append(scr.selVerts, vert)
	}
}

// solveSlice produces the coloring + frequency assignment for the active
// gate set staged in scr, through the per-slice cache when one is attached.
// The key is the exact sorted active vertex set of the interaction subgraph
// on this system. A whole-slice miss decomposes the subgraph into its
// connected components, solves (and memoizes) each independently, and
// merges — see computeSlice.
func (b *builder) solveSlice(scr *sliceScratch, intCfg smt.Config, budget int) (compile.SliceSolution, error) {
	scr.keyVerts = append(scr.keyVerts[:0], scr.activeVerts...)
	sort.Ints(scr.keyVerts)
	key := compile.SliceKey(b.sig, b.xg.Distance, budget, scr.keyVerts)
	return b.ctx.Slice(key, func() (compile.SliceSolution, error) {
		return b.computeSlice(scr, intCfg, budget)
	})
}

// computeSlice is the whole-slice miss path: it splits the active
// interaction subgraph into connected components, solves each in isolation
// (fanning independent components across the Context's spare workers —
// results land in index-addressed slots, so scheduling cannot affect the
// merge), and merges them. Decomposition is exact, not heuristic: the
// active subgraph is vertex-induced, so no crosstalk edge crosses a
// component boundary, and the greedy coloring of a component is identical
// whether the rest of the slice exists or not (Welsh–Powell order and
// greedy color choice only read intra-component degrees and neighbors).
// Component solutions are what turn the slice cache into a motif cache:
// two globally distinct slices that share a local gate cluster reuse its
// entry.
func (b *builder) computeSlice(scr *sliceScratch, intCfg smt.Config, budget int) (compile.SliceSolution, error) {
	comps := b.xg.ActiveComponents(scr.keyVerts)
	sols := make([]compile.ComponentSolution, len(comps))
	errs := make([]error, len(comps))
	b.ctx.ForEach(len(comps), func(i int) {
		sols[i], errs[i] = b.solveComponent(comps[i], budget)
	})
	for _, err := range errs {
		if err != nil {
			return compile.SliceSolution{}, err
		}
	}
	return b.mergeComponents(scr.keyVerts, sols, intCfg)
}

// solveComponent colors one connected component of the active subgraph in
// isolation, through the slice region's component cache.
func (b *builder) solveComponent(verts []int, budget int) (compile.ComponentSolution, error) {
	key := compile.SliceComponentKey(b.sig, b.xg.Distance, budget, verts)
	return b.ctx.SliceComponent(key, func() (compile.ComponentSolution, error) {
		h := b.xg.G.Subgraph(verts)
		coloring, deferred := graph.BoundedColoring(h, budget)
		return compile.ComponentSolution{
			Coloring:  coloring,
			Deferred:  deferred,
			NumColors: coloring.NumColors(),
			Counts:    coloring.ColorCounts(),
		}, nil
	})
}

// mergeComponents reassembles a whole-slice solution from its component
// solutions. The merge reproduces the monolithic solve field for field:
// greedy colors are contiguous from 0 within every component, so the
// slice's color count is the max over components; per-color occupancy is
// the per-color sum; the deferred set is the sorted union; and exactly one
// SMT solve runs, for the merged color count — the frequencies depend on
// the whole slice's k, never on any single component, which is why
// ComponentSolution carries no frequencies. The merged coloring spans
// vertices 0..max(keyVerts), matching graph.Subgraph's capacity convention
// on the monolithic path (an empty slice yields the empty non-nil
// coloring, same as NewColoring(0)).
//
//fastsc:hotpath the merge runs once per whole-slice miss between the component fan-out and the schedule's issue loop (BenchmarkLargeCircuitCompile guards it); nothing here may allocate a map, call fmt, or box
func (b *builder) mergeComponents(keyVerts []int, sols []compile.ComponentSolution, intCfg smt.Config) (compile.SliceSolution, error) {
	span := 0
	if len(keyVerts) > 0 {
		span = keyVerts[len(keyVerts)-1] + 1
	}
	merged := graph.NewColoring(span)
	k := 0
	var deferred []int
	for i := range sols {
		sol := &sols[i]
		if sol.NumColors > k {
			k = sol.NumColors
		}
		for v, c := range sol.Coloring {
			if c != graph.Uncolored {
				merged[v] = c
			}
		}
		deferred = append(deferred, sol.Deferred...)
	}
	sort.Ints(deferred)
	var freqs []float64
	delta := 0.0
	if k > 0 {
		var err error
		freqs, delta, err = b.ctx.SolveSMT(k, intCfg)
		if err != nil {
			return compile.SliceSolution{}, err
		}
	}
	// Occupancy-ordered color -> frequency map (§V-B3), over the summed
	// per-color occupancy of all components.
	var assign []float64
	if k > 0 {
		counts := make([]int, k)
		for i := range sols {
			for c, n := range sols[i].Counts {
				counts[c] += n
			}
		}
		assign = smt.AssignByOccupancy(counts, freqs)
	}
	return compile.SliceSolution{
		Coloring:  merged,
		Deferred:  deferred,
		NumColors: k,
		Assign:    assign,
		Delta:     delta,
	}, nil
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
