package noise_test

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fastsc/internal/bench"
	"fastsc/internal/circuit"
	"fastsc/internal/compile"
	"fastsc/internal/core"
	"fastsc/internal/expt"
	"fastsc/internal/noise"
	"fastsc/internal/phys"
	"fastsc/internal/schedule"
	"fastsc/internal/topology"
)

var update = flag.Bool("update", false, "rewrite testdata/report.golden from the current evaluator")

// goldenRow renders every Report field: the floats at %.17g, which
// round-trips a float64 exactly, so the golden pins them bit for bit.
func goldenRow(key string, r *noise.Report) string {
	return fmt.Sprintf("%s\t%.17g %.17g %.17g %.17g %.17g %.17g %.17g %.17g %.17g %d %d %d",
		key, r.Success, r.CrosstalkError, r.GateGateError, r.SpectatorError,
		r.AmbientError, r.FluxError, r.DecoherenceError, r.IntrinsicError,
		r.Duration, r.Depth, r.NumGates, r.Num2Q)
}

// goldenSchedule compiles one job through the shared context, the same
// route-then-schedule path core.CompileCtx takes.
func goldenSchedule(tb testing.TB, ctx *compile.Context, c *circuit.Circuit, sys *phys.System, strategy string, cfg core.Config) *schedule.Schedule {
	tb.Helper()
	res, err := core.CompileCtx(ctx, c, sys, strategy, cfg)
	if err != nil {
		tb.Fatalf("%s on %s: %v", strategy, sys.Device.Name, err)
	}
	return res.Schedule
}

// fig9Job is one compiled job of the Fig 9 sweep.
type fig9Job struct {
	key   string // benchmark/strategy
	sched *schedule.Schedule
}

// fig9Schedules compiles the Fig 9 sweep, expt.Suite() × core.Strategies()
// on the experiments' grid systems (one System per benchmark, shared by
// its five strategies).
func fig9Schedules(tb testing.TB, ctx *compile.Context) []fig9Job {
	var jobs []fig9Job
	for _, b := range expt.Suite() {
		sys := expt.GridSystem(b.Qubits)
		c := b.Circuit(sys.Device)
		for _, strategy := range core.Strategies() {
			s := goldenSchedule(tb, ctx, c, sys, strategy, core.Config{Placement: b.Placement})
			jobs = append(jobs, fig9Job{key: b.Name + "/" + strategy, sched: s})
		}
	}
	return jobs
}

// deepCircuit draws one seeded random native circuit on sys: a quarter H,
// a quarter RZ and half CNOTs on random couplers, the shape of fastscbench's
// deep-100q workload. Nearly every slice of such a circuit has a distinct
// scattered active set, so compiling it exercises the slice solver's miss
// path rather than its cache.
func deepCircuit(sys *phys.System, gates int, seed int64) *circuit.Circuit {
	rng := rand.New(rand.NewSource(seed))
	edges := sys.Device.Coupling.Edges()
	n := sys.Device.Qubits
	c := circuit.New(n)
	for range gates {
		switch rng.Intn(4) {
		case 0:
			c.H(rng.Intn(n))
		case 1:
			c.RZ(rng.Intn(n), rng.Float64())
		default:
			e := edges[rng.Intn(len(edges))]
			c.CNOT(e.U, e.V)
		}
	}
	return c
}

// goldenRows evaluates the pinned job set: the Fig 9 suite under three
// noise settings, then a device × crosstalk-distance × gmon-residual
// sweep over every strategy, including the ColorDynamic-G extension, then
// deep 100-qubit circuits through both dynamic strategies at every color
// budget (1, 2, 3 and unlimited), where deferral decisions are most
// sensitive to how each slice is colored.
func goldenRows(t *testing.T) []string {
	ctx := compile.NewContext(1)
	var rows []string

	noDefault := noise.DefaultOptions()
	noAmbient := noDefault
	noAmbient.DisableAmbient = true
	noFlux := noDefault
	noFlux.FluxNoiseSigma = 0
	variants := []struct {
		name string
		opt  noise.Options
	}{{"default", noDefault}, {"no-ambient", noAmbient}, {"no-flux", noFlux}}
	for _, job := range fig9Schedules(t, ctx) {
		for _, v := range variants {
			rows = append(rows, goldenRow("fig9/"+job.key+"/"+v.name, noise.Evaluate(job.sched, v.opt)))
		}
	}

	devices := []*topology.Device{
		topology.Grid(4, 4),
		topology.Linear(16),
		topology.Ring(16),
		topology.Express1D(16, 3),
		topology.Express2D(4, 4, 3),
	}
	for _, dev := range devices {
		sys := expt.SystemFor(dev)
		circs := []struct {
			name      string
			c         *circuit.Circuit
			placement core.Placement
		}{
			{"xeb(16,5)", bench.XEB(dev, 5, 7), core.PlaceIdentity},
			{"qgan(16)", bench.QGAN(16, 0, 7), core.PlaceSnake},
		}
		for _, cc := range circs {
			for _, d := range []int{1, 2} {
				for _, r := range []float64{0, 0.05} {
					cfg := core.Config{
						Placement: cc.placement,
						Schedule:  schedule.Options{XtalkDistance: d, Residual: r},
					}
					for _, comp := range schedule.Extended() {
						strategy := comp.Name()
						s := goldenSchedule(t, ctx, cc.c, sys, strategy, cfg)
						key := fmt.Sprintf("%s/%s/d=%d/r=%g/%s", dev.Name, cc.name, d, r, strategy)
						rows = append(rows, goldenRow(key, noise.Evaluate(s, noDefault)))
					}
				}
			}
		}
	}

	deep := expt.GridSystem(100)
	for seed := int64(1); seed <= 3; seed++ {
		c := deepCircuit(deep, 3000, seed)
		for _, strategy := range []string{schedule.ColorDynamic{}.Name(), schedule.GmonDynamic{}.Name()} {
			for _, maxColors := range []int{1, 2, 3, -1} {
				cfg := core.Config{Schedule: schedule.Options{MaxColors: maxColors}}
				s := goldenSchedule(t, ctx, c, deep, strategy, cfg)
				key := fmt.Sprintf("deep(100,3000)/seed=%d/%s/maxColors=%d", seed, strategy, maxColors)
				rows = append(rows, goldenRow(key, noise.Evaluate(s, noDefault)))
			}
		}
	}
	return rows
}

// TestReportGolden pins every Report field the evaluator produces, bit for
// bit, over a few hundred schedules: the Fig 9 suite with default,
// ambient-free and flux-free noise options, and a sweep over grid, linear,
// ring and express-cube devices at crosstalk distance 1 and 2 with and
// without gmon residual coupling. With -update it rewrites the golden
// instead; the file is only ever regenerated deliberately, because any
// changed row is a changed experiment table.
func TestReportGolden(t *testing.T) {
	rows := goldenRows(t)
	path := filepath.Join("testdata", "report.golden")
	if *update {
		if err := os.WriteFile(path, []byte(strings.Join(rows, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(rows) != len(want) {
		t.Fatalf("%d rows, golden has %d", len(rows), len(want))
	}
	bad := 0
	for i := range rows {
		if rows[i] != want[i] {
			bad++
			if bad <= 5 {
				t.Errorf("row %d:\n got  %s\n want %s", i, rows[i], want[i])
			}
		}
	}
	if bad > 0 {
		t.Fatalf("%d of %d rows differ from %s", bad, len(rows), path)
	}
}
