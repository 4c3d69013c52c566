package noise_test

import (
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
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

var update = flag.Bool("update", false, "rewrite the golden files under testdata from the current compilers and evaluator")

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

// goldenJob is one schedule of the pinned job set.
type goldenJob struct {
	key   string
	sched *schedule.Schedule
	// fig9 marks the Fig 9 jobs, which the report golden evaluates under
	// every noise variant.
	fig9 bool
}

// goldenJobs compiles the pinned job set: the Fig 9 suite, then a device ×
// crosstalk-distance × gmon-residual sweep over every strategy, including
// the ColorDynamic-G extension, then deep 100-qubit circuits through both
// dynamic strategies at every color budget (1, 2, 3 and unlimited), where
// deferral decisions are most sensitive to how each slice is colored.
func goldenJobs(t *testing.T) []goldenJob {
	ctx := compile.NewContext(1)
	var jobs []goldenJob
	for _, job := range fig9Schedules(t, ctx) {
		jobs = append(jobs, goldenJob{key: "fig9/" + job.key, sched: job.sched, fig9: true})
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
						jobs = append(jobs, goldenJob{key: key, sched: s})
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
				jobs = append(jobs, goldenJob{key: key, sched: s})
			}
		}
	}
	return jobs
}

// goldenRows evaluates the pinned job set: the Fig 9 jobs under three
// noise settings, every other job under the default ones.
func goldenRows(t *testing.T) []string {
	noDefault := noise.DefaultOptions()
	noAmbient := noDefault
	noAmbient.DisableAmbient = true
	noFlux := noDefault
	noFlux.FluxNoiseSigma = 0
	variants := []struct {
		name string
		opt  noise.Options
	}{{"default", noDefault}, {"no-ambient", noAmbient}, {"no-flux", noFlux}}
	var rows []string
	for _, job := range goldenJobs(t) {
		if !job.fig9 {
			rows = append(rows, goldenRow(job.key, noise.Evaluate(job.sched, noDefault)))
			continue
		}
		for _, v := range variants {
			rows = append(rows, goldenRow(job.key+"/"+v.name, noise.Evaluate(job.sched, v.opt)))
		}
	}
	return rows
}

// checkGolden compares rows with the golden file at path line by line, or
// rewrites the file under -update.
func checkGolden(t *testing.T, path string, rows []string) {
	t.Helper()
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

// TestReportGolden pins every Report field the evaluator produces, bit for
// bit, over a few hundred schedules: the Fig 9 suite with default,
// ambient-free and flux-free noise options, and a sweep over grid, linear,
// ring and express-cube devices at crosstalk distance 1 and 2 with and
// without gmon residual coupling. With -update it rewrites the golden
// instead; the file is only ever regenerated deliberately, because any
// changed row is a changed experiment table.
func TestReportGolden(t *testing.T) {
	checkGolden(t, filepath.Join("testdata", "report.golden"), goldenRows(t))
}

// scheduleDigest hashes a schedule with FNV-64a: per slice its start,
// duration, color count, delta, qubit frequencies and active couplers;
// per gate its kind, operands, duration, frequency and color; and the
// schedule's total time, largest color count, compiled depth and parking
// frequencies. Floats enter through math.Float64bits and every list
// through its length first, so changing any bit of those fields changes
// the digest, barring a 64-bit hash collision.
func scheduleDigest(s *schedule.Schedule) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	word := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	num := func(x int) { word(uint64(int64(x))) }
	float := func(x float64) { word(math.Float64bits(x)) }
	floats := func(xs []float64) {
		num(len(xs))
		for _, x := range xs {
			float(x)
		}
	}
	num(len(s.Slices))
	for _, sl := range s.Slices {
		float(sl.Start)
		float(sl.Duration)
		num(sl.Colors)
		float(sl.Delta)
		floats(sl.Freqs)
		num(len(sl.ActiveCouplers))
		for _, e := range sl.ActiveCouplers {
			num(e.U)
			num(e.V)
		}
		num(len(sl.Gates))
		for _, ev := range sl.Gates {
			num(int(ev.Gate.Kind))
			num(len(ev.Gate.Qubits))
			for _, q := range ev.Gate.Qubits {
				num(q)
			}
			float(ev.Duration)
			float(ev.Freq)
			num(ev.Color)
		}
	}
	float(s.TotalTime)
	num(s.MaxColorsUsed)
	num(s.CompiledDepth)
	floats(s.ParkingFreqs)
	return h.Sum64()
}

// TestScheduleGolden pins the schedules behind TestReportGolden's rows bit
// for bit, including the fields no Report reads (slice colors and delta,
// gate colors, the largest color count), so a change to a strategy cannot
// alter its output unseen. One row per job: its key and scheduleDigest.
// -update rewrites the golden.
func TestScheduleGolden(t *testing.T) {
	var rows []string
	for _, job := range goldenJobs(t) {
		rows = append(rows, fmt.Sprintf("%s\t%016x", job.key, scheduleDigest(job.sched)))
	}
	checkGolden(t, filepath.Join("testdata", "schedule.golden"), rows)
}
