// Benchmark harness: one testing.B benchmark per table and figure of the
// paper, plus ablations of the design choices DESIGN.md calls out and
// scalability micro-benchmarks. Run with:
//
//	go test -bench=. -benchmem
//
// Headline quantities (success rates, improvement ratios) are attached to
// the benchmark output via b.ReportMetric.
package fastsc_test

import (
	"testing"

	"fastsc/internal/bench"
	"fastsc/internal/circuit"
	"fastsc/internal/compile"
	"fastsc/internal/core"
	"fastsc/internal/expt"
	"fastsc/internal/graph"
	"fastsc/internal/phys"
	"fastsc/internal/schedule"
	"fastsc/internal/sim"
	"fastsc/internal/smt"
	"fastsc/internal/topology"
	"fastsc/internal/xtalk"
)

// benchCtx returns a fresh batch-engine context per figure run, so each
// iteration measures the engine end-to-end from a cold cache.
func benchCtx() *compile.Context { return compile.NewContext(0) }

// --- Tables ---

func BenchmarkTable1Strategies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if t := expt.TableStrategies(); len(t.Rows) != 5 {
			b.Fatal("table I must list five strategies")
		}
	}
}

func BenchmarkTable2Benchmarks(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if t := expt.TableBenchmarks(); len(t.Rows) != 5 {
			b.Fatal("table II must list five benchmark families")
		}
	}
}

// --- Figures ---

func BenchmarkFig2InteractionStrength(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if t := expt.Fig2InteractionStrength(); len(t.Rows) == 0 {
			b.Fatal("empty sweep")
		}
	}
}

func BenchmarkFig4TransmonSpectrum(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if t := expt.Fig4TransmonSpectrum(); len(t.Rows) == 0 {
			b.Fatal("empty spectrum")
		}
	}
}

func BenchmarkFig6Toy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := expt.Fig6Toy(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7MeshColoring(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if t := expt.Fig7MeshColoring(); len(t.Rows) != 3 {
			b.Fatal("mesh coloring rows missing")
		}
	}
}

func BenchmarkFig9SuccessRates(b *testing.B) {
	var mean float64
	for i := 0; i < b.N; i++ {
		r, err := expt.Fig9SuccessRates(benchCtx())
		if err != nil {
			b.Fatal(err)
		}
		mean = r.MeanCDOverU
	}
	b.ReportMetric(mean, "CD/U-mean-ratio")
}

func BenchmarkFig10DepthDecoherence(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		r, err := expt.Fig10DepthDecoherence(benchCtx())
		if err != nil {
			b.Fatal(err)
		}
		ratio = r.MeanDecCDOverU
	}
	b.ReportMetric(ratio, "CD/U-decoherence")
}

func BenchmarkFig11ColorSweep(b *testing.B) {
	best := 0.0
	for i := 0; i < b.N; i++ {
		r, err := expt.Fig11ColorSweep(benchCtx())
		if err != nil {
			b.Fatal(err)
		}
		sum := 0
		for _, k := range r.BestColors {
			sum += k
		}
		best = float64(sum) / float64(len(r.BestColors))
	}
	b.ReportMetric(best, "mean-best-colors")
}

func BenchmarkFig12ResidualCoupling(b *testing.B) {
	var drop float64
	for i := 0; i < b.N; i++ {
		r, err := expt.Fig12ResidualCoupling(benchCtx())
		if err != nil {
			b.Fatal(err)
		}
		s := r.Success["xeb(16,15)"]
		if len(s) > 0 && s[len(s)-1] > 0 {
			drop = s[0] / s[len(s)-1]
		}
	}
	b.ReportMetric(drop, "xeb(16,15)-r0/r0.9")
}

func BenchmarkFig13Connectivity(b *testing.B) {
	var geo float64
	for i := 0; i < b.N; i++ {
		r, err := expt.Fig13Connectivity(benchCtx())
		if err != nil {
			b.Fatal(err)
		}
		geo = r.GeoMeanCDOverU
	}
	b.ReportMetric(geo, "CD/U-geomean")
}

func BenchmarkFig14ExampleFrequencies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := expt.Fig14ExampleFrequencies(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig15Chevrons(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if t := expt.Fig15Chevrons(); len(t.Rows) == 0 {
			b.Fatal("empty chevron scan")
		}
	}
}

func BenchmarkValidationHeuristic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := expt.ValidationHeuristic(benchCtx(), 40); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations (design choices called out in DESIGN.md) ---

// BenchmarkAblationDecomposition compares the hybrid decomposition of
// §V-B5 against forcing a single native family, on a SWAP-heavy routed
// workload.
func BenchmarkAblationDecomposition(b *testing.B) {
	for _, strat := range []circuit.DecomposeStrategy{circuit.Hybrid, circuit.PureCZ, circuit.PureISwap} {
		b.Run(strat.String(), func(b *testing.B) {
			sys := phys.NewSystem(topology.SquareGrid(9), phys.DefaultParams(), 42)
			circ := bench.QAOA(9, 7)
			var success float64
			for i := 0; i < b.N; i++ {
				res, err := core.Compile(circ, sys, core.ColorDynamic, core.Config{
					Schedule: schedule.Options{Decompose: strat},
				})
				if err != nil {
					b.Fatal(err)
				}
				success = res.Report.Success
			}
			b.ReportMetric(success, "success")
		})
	}
}

// BenchmarkAblationXtalkDistance compares nearest-neighbor-only coloring
// (d=1, Fig 7) with the default distance-2 coloring (§IV-C3).
func BenchmarkAblationXtalkDistance(b *testing.B) {
	for _, d := range []int{1, 2} {
		b.Run(map[int]string{1: "d1", 2: "d2"}[d], func(b *testing.B) {
			sys := phys.NewSystem(topology.SquareGrid(16), phys.DefaultParams(), 42)
			circ := bench.XEB(sys.Device, 10, 7)
			var success float64
			for i := 0; i < b.N; i++ {
				res, err := core.Compile(circ, sys, core.ColorDynamic, core.Config{
					Schedule: schedule.Options{XtalkDistance: d},
				})
				if err != nil {
					b.Fatal(err)
				}
				success = res.Report.Success
			}
			b.ReportMetric(success, "success")
		})
	}
}

// BenchmarkAblationQueueing sweeps the noise_conflict threshold of the
// queueing scheduler (§V-B6): 1 serializes aggressively, 99 never defers.
func BenchmarkAblationQueueing(b *testing.B) {
	for _, limit := range []int{1, 4, 99} {
		b.Run(map[int]string{1: "aggressive", 4: "default", 99: "off"}[limit], func(b *testing.B) {
			sys := phys.NewSystem(topology.SquareGrid(16), phys.DefaultParams(), 42)
			circ := bench.XEB(sys.Device, 10, 7)
			var success float64
			for i := 0; i < b.N; i++ {
				res, err := core.Compile(circ, sys, core.ColorDynamic, core.Config{
					Schedule: schedule.Options{ConflictLimit: limit},
				})
				if err != nil {
					b.Fatal(err)
				}
				success = res.Report.Success
			}
			b.ReportMetric(success, "success")
		})
	}
}

// --- Scalability micro-benchmarks ---

// BenchmarkCompileColorDynamic81 measures compilation latency on an
// 81-qubit chip (the paper reports <30 s in Python; §VII-C).
func BenchmarkCompileColorDynamic81(b *testing.B) {
	sys := phys.NewSystem(topology.SquareGrid(81), phys.DefaultParams(), 42)
	circ := bench.XEB(sys.Device, 10, 7)
	comp := schedule.ColorDynamic{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := comp.Compile(&compile.Context{}, circ, sys, schedule.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCrosstalkGraph9x9(b *testing.B) {
	dev := topology.Grid(9, 9)
	for i := 0; i < b.N; i++ {
		xtalk.Build(dev, 2)
	}
}

func BenchmarkSMTSolve8Colors(b *testing.B) {
	cfg := smt.Config{Lo: 6.15, Hi: 6.95, Alpha: -0.2}
	for i := 0; i < b.N; i++ {
		if _, _, err := smt.Solve(8, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWelshPowellMeshXtalk(b *testing.B) {
	x := xtalk.Build(topology.Grid(8, 8), 1)
	for i := 0; i < b.N; i++ {
		if c := graph.WelshPowell(x.G); !c.Valid(x.G) {
			b.Fatal("invalid coloring")
		}
	}
}

func BenchmarkStatevector14Qubits(b *testing.B) {
	dev := topology.Grid(2, 7)
	c := bench.XEB(dev, 4, 3)
	for i := 0; i < b.N; i++ {
		sim.RunIdeal(c)
	}
}

func BenchmarkNoisyTrajectory9Qubits(b *testing.B) {
	sys := phys.NewSystem(topology.SquareGrid(9), phys.DefaultParams(), 42)
	circ := bench.XEB(sys.Device, 5, 7)
	sched, err := schedule.ColorDynamic{}.Compile(&compile.Context{}, circ, sys, schedule.Options{})
	if err != nil {
		b.Fatal(err)
	}
	opt := sim.DefaultTrajectoryOptions(1)
	opt.Shots = 10
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.RunNoisy(sched, opt)
	}
}
