// Command experiments regenerates the tables and figures of the paper's
// evaluation, running every benchmark × compiler sweep through the batch
// compilation engine (bounded worker pool + cross-job solver caches). With
// no arguments it runs everything; otherwise pass one or more experiment
// ids:
//
//	experiments fig9 fig13
//	experiments -workers 4 -cache-stats all
//	experiments -cache-file sweep.snap fig9   # second run starts warm
//
// Available ids: table1, table2, fig2, fig4, fig6, fig7, fig9, fig10,
// fig11, fig12, fig13, fig14, fig15, ext-gmon, ext-routers, validation.
//
// The layout/routing stage is configurable: -router selects the SWAP
// insertion algorithm (greedy | lookahead) and -placement overrides every
// benchmark's natural initial layout (identity | snake | degree).
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"sort"

	"fastsc/internal/compile"
	"fastsc/internal/core"
	"fastsc/internal/expt"
	"fastsc/internal/mapping"
)

type runner struct {
	id  string
	run func(ctx *compile.Context) error
}

func main() {
	var (
		workers    = flag.Int("workers", 0, "batch-engine worker pool size (0 = GOMAXPROCS)")
		cacheSize  = flag.Int("cache-size", 0, "solver cache capacity in cost units (0 = default)")
		cacheStats = flag.Bool("cache-stats", false, "print cache hit/miss counters after the run")
		cacheFile  = flag.String("cache-file", "", "cache snapshot path: loaded before the run (cold start if missing/stale) and saved after it, so repeated sweeps skip recurring solver work; a .gz suffix writes it compressed")
		router     = flag.String("router", "", "routing algorithm for every job: greedy (default) | lookahead")
		placement  = flag.String("placement", "", "override every benchmark's initial placement: identity | snake | degree (default: per-benchmark)")
	)
	flag.Parse()

	if _, err := mapping.NewRouter(mapping.RouterConfig{Algorithm: *router}); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(2)
	}
	if *placement != "" && !slices.Contains(mapping.PlacementNames(), *placement) {
		fmt.Fprintf(os.Stderr, "experiments: unknown placement %q (want one of %v)\n",
			*placement, mapping.PlacementNames())
		os.Exit(2)
	}
	expt.Routing = expt.RoutingOptions{
		Router:    mapping.RouterConfig{Algorithm: *router},
		Placement: core.Placement(*placement),
	}

	// One shared context for the whole run: every experiment's jobs reuse
	// the same SMT solutions, crosstalk graphs and slice colorings.
	ctx := &compile.Context{Cache: compile.NewCache(*cacheSize), Workers: *workers}
	if *cacheFile != "" {
		res, err := ctx.Cache.LoadSnapshot(*cacheFile)
		switch {
		case err != nil:
			fmt.Fprintf(os.Stderr, "experiments: cache snapshot: %v (starting cold)\n", err)
		case res.Degraded != "":
			fmt.Fprintf(os.Stderr, "experiments: cache snapshot %s degraded (%s): starting cold\n", *cacheFile, res.Degraded)
		case res.Restored > 0:
			fmt.Fprintf(os.Stderr, "experiments: warmed solver cache with %d entries from %s\n", res.Restored, *cacheFile)
		}
	}

	runners := []runner{
		{"table1", func(*compile.Context) error { show(expt.TableStrategies()); return nil }},
		{"table2", func(*compile.Context) error { show(expt.TableBenchmarks()); return nil }},
		{"fig2", func(*compile.Context) error { show(expt.Fig2InteractionStrength()); return nil }},
		{"fig4", func(*compile.Context) error { show(expt.Fig4TransmonSpectrum()); return nil }},
		{"fig6", func(*compile.Context) error {
			t, err := expt.Fig6Toy()
			if err != nil {
				return err
			}
			show(t)
			return nil
		}},
		{"fig7", func(*compile.Context) error { show(expt.Fig7MeshColoring()); return nil }},
		{"fig9", func(ctx *compile.Context) error {
			r, err := expt.Fig9SuccessRates(ctx)
			if err != nil {
				return err
			}
			show(r.Table)
			return nil
		}},
		{"fig10", func(ctx *compile.Context) error {
			r, err := expt.Fig10DepthDecoherence(ctx)
			if err != nil {
				return err
			}
			show(r.DepthTable)
			show(r.DecoherenceTable)
			return nil
		}},
		{"fig11", func(ctx *compile.Context) error {
			r, err := expt.Fig11ColorSweep(ctx)
			if err != nil {
				return err
			}
			show(r.Table)
			return nil
		}},
		{"fig12", func(ctx *compile.Context) error {
			r, err := expt.Fig12ResidualCoupling(ctx)
			if err != nil {
				return err
			}
			show(r.Table)
			return nil
		}},
		{"fig13", func(ctx *compile.Context) error {
			r, err := expt.Fig13Connectivity(ctx)
			if err != nil {
				return err
			}
			show(r.Table)
			return nil
		}},
		{"fig14", func(*compile.Context) error {
			t, err := expt.Fig14ExampleFrequencies()
			if err != nil {
				return err
			}
			show(t)
			return nil
		}},
		{"fig15", func(*compile.Context) error { show(expt.Fig15Chevrons()); return nil }},
		{"ext-gmon", func(ctx *compile.Context) error {
			r, err := expt.ExtGmonDynamic(ctx)
			if err != nil {
				return err
			}
			show(r.Table)
			return nil
		}},
		{"ext-routers", func(ctx *compile.Context) error {
			r, err := expt.ExtRouterComparison(ctx)
			if err != nil {
				return err
			}
			show(r.Table)
			return nil
		}},
		{"validation", func(ctx *compile.Context) error {
			r, err := expt.ValidationHeuristic(ctx, 150)
			if err != nil {
				return err
			}
			show(r.Table)
			return nil
		}},
	}

	want := flag.Args()
	if len(want) == 0 || (len(want) == 1 && want[0] == "all") {
		want = nil
		for _, r := range runners {
			want = append(want, r.id)
		}
	}
	byID := map[string]runner{}
	for _, r := range runners {
		byID[r.id] = r
	}
	for _, id := range want {
		r, ok := byID[id]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", id)
			os.Exit(2)
		}
		if err := r.run(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", id, err)
			os.Exit(1)
		}
	}
	if *cacheFile != "" {
		if err := ctx.Cache.Save(*cacheFile); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: cache snapshot: %v\n", err)
		}
	}
	if *cacheStats {
		printCacheStats(ctx)
	}
}

func show(t *expt.Table) {
	fmt.Println(t.String())
}

func printCacheStats(ctx *compile.Context) {
	stats := ctx.Stats()
	regions := make([]string, 0, len(stats))
	for r := range stats {
		regions = append(regions, r)
	}
	sort.Strings(regions)
	fmt.Println("== solver cache ==")
	for _, r := range regions {
		s := stats[r]
		fmt.Printf("%-8s hits %-8d misses %-8d evictions %-6d hit-rate %.1f%%\n",
			r, s.Hits, s.Misses, s.Evictions, 100*s.HitRate())
	}
	t := ctx.Cache.TotalStats()
	fmt.Printf("%-8s hits %-8d misses %-8d evictions %-6d hit-rate %.1f%%\n",
		"total", t.Hits, t.Misses, t.Evictions, 100*t.HitRate())
}
