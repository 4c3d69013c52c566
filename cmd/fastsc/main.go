// Command fastsc compiles a benchmark circuit onto a simulated tunable-
// transmon device with one of the five strategies of Table I and prints the
// schedule summary and the worst-case success estimate.
//
// Examples:
//
//	fastsc -bench xeb -n 16 -cycles 10 -strategy ColorDynamic
//	fastsc -bench qgan -n 25 -strategy "Baseline U" -verbose
//	fastsc -bench ising -n 9 -topology linear -strategy ColorDynamic
//	fastsc -bench bv -n 16 -compare
//	fastsc -qasm mycircuit.qasm -n 16 -strategy ColorDynamic
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"text/tabwriter"

	"fastsc/internal/bench"
	"fastsc/internal/circuit"
	"fastsc/internal/compile"
	"fastsc/internal/core"
	"fastsc/internal/mapping"
	"fastsc/internal/phys"
	"fastsc/internal/qasm"
	"fastsc/internal/schedule"
	"fastsc/internal/topology"
)

func main() {
	var (
		benchName = flag.String("bench", "xeb", "benchmark: bv | qaoa | ising | qgan | xeb")
		qasmFile  = flag.String("qasm", "", "compile an OpenQASM file instead of a generated benchmark")
		n         = flag.Int("n", 16, "number of qubits (square for grid topologies)")
		cycles    = flag.Int("cycles", 10, "XEB cycles / Ising Trotter steps / QGAN layers (0 = default)")
		topo      = flag.String("topology", "grid", "device: grid | linear | ring | 1ex-K | 2ex-K (e.g. 1ex-3)")
		strategy  = flag.String("strategy", core.ColorDynamic, "compilation strategy (Table I name)")
		compare   = flag.Bool("compare", false, "run all five strategies and print a comparison")
		seed      = flag.Int64("seed", 7, "workload seed")
		devSeed   = flag.Int64("device-seed", 42, "chip fabrication seed")
		maxColors = flag.Int("max-colors", 0, "ColorDynamic color budget (0 = default 2, -1 = unlimited)")
		residual  = flag.Float64("residual", 0, "gmon residual coupling factor r")
		dist      = flag.Int("distance", 0, "crosstalk distance d (0 = default 2)")
		workers   = flag.Int("workers", 0, "batch-engine worker pool size for -compare (0 = GOMAXPROCS)")
		cacheFile = flag.String("cache-file", "", "cache snapshot path: loaded before compiling (cold start if missing/stale) and saved afterwards; a .gz suffix writes it compressed")
		router    = flag.String("router", "", "routing algorithm: greedy (default) | lookahead")
		place     = flag.String("placement", "", "initial placement: identity | snake | degree (default: benchmark's natural choice)")
		verbose   = flag.Bool("verbose", false, "print every slice with its frequencies")
	)
	flag.Parse()

	if _, err := mapping.NewRouter(mapping.RouterConfig{Algorithm: *router}); err != nil {
		fatal(err)
	}
	if *place != "" && !slices.Contains(mapping.PlacementNames(), *place) {
		fatal(fmt.Errorf("unknown placement %q (want one of %v)", *place, mapping.PlacementNames()))
	}

	dev, err := buildDevice(*topo, *n)
	if err != nil {
		fatal(err)
	}
	sys := phys.NewSystem(dev, phys.DefaultParams(), *devSeed)
	var circ *circuit.Circuit
	placement := core.PlaceIdentity
	if *qasmFile != "" {
		src, err := os.ReadFile(*qasmFile)
		if err != nil {
			fatal(err)
		}
		parsed, err := qasm.Parse(string(src))
		if err != nil {
			fatal(err)
		}
		for _, skipped := range parsed.Skipped {
			fmt.Fprintf(os.Stderr, "fastsc: ignoring %q\n", skipped)
		}
		circ = parsed.Circuit
	} else {
		var err error
		circ, placement, err = buildCircuit(*benchName, *n, *cycles, dev, *seed)
		if err != nil {
			fatal(err)
		}
	}
	if *place != "" {
		placement = core.Placement(*place)
	}
	cfg := core.Config{
		Placement: placement,
		Router:    mapping.RouterConfig{Algorithm: *router},
		Schedule: schedule.Options{
			MaxColors:     *maxColors,
			Residual:      *residual,
			XtalkDistance: *dist,
		},
	}

	ctx := &compile.Context{Cache: compile.NewCache(0), Workers: *workers}
	if *cacheFile != "" {
		res, err := ctx.Cache.LoadSnapshot(*cacheFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fastsc: cache snapshot: %v (starting cold)\n", err)
		} else if res.Degraded != "" {
			fmt.Fprintf(os.Stderr, "fastsc: cache snapshot %s degraded (%s): starting cold\n", *cacheFile, res.Degraded)
		}
	}
	if *compare {
		runComparison(ctx, circ, sys, cfg)
	} else {
		res, err := core.CompileCtx(ctx, circ, sys, *strategy, cfg)
		if err != nil {
			fatal(err)
		}
		printResult(*strategy, dev, circ, res, *verbose)
	}
	if *cacheFile != "" {
		if err := ctx.Cache.Save(*cacheFile); err != nil {
			fmt.Fprintf(os.Stderr, "fastsc: cache snapshot: %v\n", err)
		}
	}
}

func buildDevice(name string, n int) (*topology.Device, error) {
	return topology.FromSpec(name, n)
}

func buildCircuit(name string, n, cycles int, dev *topology.Device, seed int64) (*circuit.Circuit, core.Placement, error) {
	switch name {
	case "bv":
		return bench.BV(n, seed), core.PlaceIdentity, nil
	case "qaoa":
		return bench.QAOA(n, seed), core.PlaceIdentity, nil
	case "ising":
		return bench.Ising(n, cycles), core.PlaceSnake, nil
	case "qgan":
		return bench.QGAN(n, cycles, seed), core.PlaceSnake, nil
	case "xeb":
		if cycles <= 0 {
			cycles = 10
		}
		return bench.XEB(dev, cycles, seed), core.PlaceIdentity, nil
	}
	return nil, core.PlaceIdentity, fmt.Errorf("unknown benchmark %q", name)
}

func runComparison(ctx *compile.Context, circ *circuit.Circuit, sys *phys.System, cfg core.Config) {
	results, err := core.CompileAllCtx(ctx, circ, sys, cfg)
	if err != nil {
		fatal(err)
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "strategy\tsuccess\tcrosstalk\tdecoherence\tdepth\tduration\tcolors\tcompile")
	for _, name := range core.Strategies() {
		r := results[name]
		fmt.Fprintf(w, "%s\t%.4g\t%.4f\t%.4f\t%d\t%.0f ns\t%d\t%s\n",
			name, r.Report.Success, r.Report.CrosstalkError, r.Report.DecoherenceError,
			r.Schedule.Depth(), r.Schedule.TotalTime, r.Schedule.MaxColorsUsed,
			r.CompileTime.Round(1000))
	}
	w.Flush()
}

func printResult(strategy string, dev *topology.Device, circ *circuit.Circuit, res *core.Result, verbose bool) {
	fmt.Printf("device:        %s (%d qubits, %d couplers)\n",
		dev.Name, dev.Qubits, dev.Coupling.NumEdges())
	// Depth via the flat analyzed-circuit IR, not the reference ASAPLayers.
	fmt.Printf("circuit:       %d gates (%d two-qubit), depth %d\n",
		circ.NumGates(), circ.TwoQubitGateCount(), circuit.Analyze(circ).Depth())
	fmt.Printf("strategy:      %s\n", strategy)
	fmt.Printf("routing swaps: %d\n", res.SwapCount)
	fmt.Printf("schedule:      %d slices, %.0f ns, max %d colors (compiled asap depth %d)\n",
		res.Schedule.Depth(), res.Schedule.TotalTime, res.Schedule.MaxColorsUsed,
		res.Schedule.CompiledDepth)
	fmt.Printf("compile time:  %s\n", res.CompileTime)
	r := res.Report
	fmt.Printf("success:       %.4g\n", r.Success)
	fmt.Printf("  crosstalk    %.4f (gate-gate %.4f, spectator %.4f, ambient %.4f)\n",
		r.CrosstalkError, r.GateGateError, r.SpectatorError, r.AmbientError)
	fmt.Printf("  flux noise   %.4f\n", r.FluxError)
	fmt.Printf("  decoherence  %.4f\n", r.DecoherenceError)
	fmt.Printf("  intrinsic    %.4f\n", r.IntrinsicError)
	if verbose {
		fmt.Println("\nslices:")
		for i, sl := range res.Schedule.Slices {
			fmt.Printf("  [%3d] t=%.0f..%.0f ns, %d gates, %d colors:",
				i, sl.Start, sl.Start+sl.Duration, len(sl.Gates), sl.Colors)
			for _, ev := range sl.Gates {
				if ev.Gate.Kind.IsTwoQubit() {
					fmt.Printf(" %s@%.3f", ev.Gate, ev.Freq)
				} else {
					fmt.Printf(" %s", ev.Gate)
				}
			}
			fmt.Println()
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fastsc:", err)
	os.Exit(1)
}
