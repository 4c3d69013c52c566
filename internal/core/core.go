// Package core is the public entry point of the FastSC-Go library: it takes
// a logical circuit and a characterized device, routes the circuit onto the
// device topology, compiles it with one of the five frequency-tuning
// strategies of Table I, and evaluates the paper's worst-case success-rate
// heuristic (eq. 4) on the resulting schedule.
//
// Typical use:
//
//	dev := topology.Grid(4, 4)
//	sys := phys.NewSystem(dev, phys.DefaultParams(), seed)
//	res, err := core.Compile(circ, sys, core.ColorDynamic, core.Config{})
//	fmt.Println(res.Report.Success)
package core

import (
	"fmt"
	"time"

	"fastsc/internal/circuit"
	"fastsc/internal/compile"
	"fastsc/internal/mapping"
	"fastsc/internal/noise"
	"fastsc/internal/phys"
	"fastsc/internal/schedule"
)

// Strategy names accepted by Compile.
const (
	BaselineN    = "Baseline N"
	BaselineG    = "Baseline G"
	BaselineU    = "Baseline U"
	BaselineS    = "Baseline S"
	ColorDynamic = "ColorDynamic"
)

// Strategies lists all strategy names in Table I order.
func Strategies() []string {
	return []string{BaselineN, BaselineG, BaselineU, BaselineS, ColorDynamic}
}

// Placement names the initial logical-to-physical embedding strategy; the
// names are mapping's placement identifiers and the zero value means
// PlaceIdentity.
type Placement string

const (
	// PlaceIdentity maps logical qubit i to physical qubit i.
	PlaceIdentity Placement = mapping.PlaceIdentity
	// PlaceSnake lays logical qubits along the device's boustrophedon
	// order, the natural embedding for chain-structured circuits (ISING,
	// QGAN).
	PlaceSnake Placement = mapping.PlaceSnake
	// PlaceDegree seats high-interaction logical qubits on high-degree
	// physical qubits (greedy degree matching over the circuit's
	// interaction counts).
	PlaceDegree Placement = mapping.PlaceDegree
)

// Config tunes a compilation run. The zero value uses the paper's defaults.
type Config struct {
	// Schedule holds the scheduler options (crosstalk distance, color
	// budget, decomposition strategy, gmon residual coupling).
	Schedule schedule.Options
	// Noise holds the evaluator options; the zero value means
	// noise.DefaultOptions.
	Noise *noise.Options
	// Placement selects the initial embedding (default PlaceIdentity).
	Placement Placement
	// Router selects and tunes the routing algorithm; the zero value is
	// the greedy shortest-path SWAP inserter (mapping.RouterGreedy).
	Router mapping.RouterConfig
}

// routing assembles the mapping options of a run.
func (c Config) routing() mapping.Options {
	return mapping.Options{Placement: string(c.Placement), Router: c.Router}
}

// Result bundles everything a compilation produces.
type Result struct {
	// Schedule is the timed, frequency-annotated program.
	Schedule *schedule.Schedule
	// Report is the worst-case success estimate and its error breakdown.
	Report *noise.Report
	// SwapCount is the number of routing SWAPs inserted.
	SwapCount int
	// CompileTime is the wall-clock compilation latency (routing through
	// scheduling; evaluation excluded), the Fig 13 metric.
	CompileTime time.Duration
}

// Compile routes, schedules and evaluates circ on sys under the named
// strategy, without cross-job memoization. It is shorthand for CompileCtx
// on the zero compile.Context; batch callers should share a cached one.
func Compile(circ *circuit.Circuit, sys *phys.System, strategy string, cfg Config) (*Result, error) {
	return CompileCtx(&compile.Context{}, circ, sys, strategy, cfg)
}

// CompileCtx routes, schedules and evaluates circ on sys under the named
// strategy, memoizing the solver stages through ctx's cache (the zero
// Context has none: every stage computes). ctx must not be nil.
func CompileCtx(ctx *compile.Context, circ *circuit.Circuit, sys *phys.System, strategy string, cfg Config) (*Result, error) {
	comp := schedule.ByName(strategy)
	if comp == nil {
		return nil, fmt.Errorf("core: unknown strategy %q (want one of %v)", strategy, Strategies())
	}

	start := time.Now()
	// Layout + routing run through the compile cache's route region: the
	// 5–7 strategies of a batch share one routed circuit per (circuit,
	// placement, router) instead of re-routing per strategy.
	routed, err := ctx.Route(circ, sys.Device, cfg.routing())
	if err != nil {
		return nil, err
	}
	sched, err := comp.Compile(ctx, routed.Routed, sys, cfg.Schedule)
	if err != nil {
		return nil, err
	}
	elapsed := time.Since(start)

	nopt := noise.DefaultOptions()
	if cfg.Noise != nil {
		nopt = *cfg.Noise
	}
	rep := noise.Evaluate(sched, nopt)
	return &Result{
		Schedule:    sched,
		Report:      rep,
		SwapCount:   routed.SwapCount,
		CompileTime: elapsed,
	}, nil
}

// CompileAll runs every strategy on the same circuit and system through the
// batch engine on the zero compile.Context (default workers, no cache),
// returning results keyed by strategy name.
func CompileAll(circ *circuit.Circuit, sys *phys.System, cfg Config) (map[string]*Result, error) {
	return CompileAllCtx(&compile.Context{}, circ, sys, cfg)
}

// CompileAllCtx is CompileAll with a shared compilation context: the five
// strategies run concurrently under ctx's parallelism budget and share its
// cache (parking assignments, SMT solves and the static palette are
// computed once for all of them).
func CompileAllCtx(ctx *compile.Context, circ *circuit.Circuit, sys *phys.System, cfg Config) (map[string]*Result, error) {
	jobs := make([]BatchJob, 0, len(Strategies()))
	for _, s := range Strategies() {
		jobs = append(jobs, BatchJob{
			Key: s, Circuit: circ, System: sys, Strategy: s, Config: cfg,
		})
	}
	return BatchCollect(ctx, jobs)
}
