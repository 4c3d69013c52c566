package compile_test

import (
	"math"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fastsc/internal/bench"
	"fastsc/internal/circuit"
	"fastsc/internal/compile"
	"fastsc/internal/core"
	"fastsc/internal/phys"
	"fastsc/internal/schedule"
	"fastsc/internal/topology"
)

func testSystem(n int) *phys.System {
	return phys.NewSystem(topology.SquareGrid(n), phys.DefaultParams(), 42)
}

// sameSchedule compares two schedules gate by gate, frequency by frequency.
func sameSchedule(t *testing.T, label string, a, b *schedule.Schedule) {
	t.Helper()
	if a.Depth() != b.Depth() {
		t.Fatalf("%s: depth %d vs %d", label, a.Depth(), b.Depth())
	}
	if math.Abs(a.TotalTime-b.TotalTime) > 1e-12 {
		t.Fatalf("%s: total time %v vs %v", label, a.TotalTime, b.TotalTime)
	}
	if a.MaxColorsUsed != b.MaxColorsUsed {
		t.Fatalf("%s: colors %d vs %d", label, a.MaxColorsUsed, b.MaxColorsUsed)
	}
	if !reflect.DeepEqual(a.ParkingFreqs, b.ParkingFreqs) {
		t.Fatalf("%s: parking frequencies differ", label)
	}
	for i := range a.Slices {
		sa, sb := a.Slices[i], b.Slices[i]
		if !reflect.DeepEqual(sa.Gates, sb.Gates) {
			t.Fatalf("%s: slice %d gates differ:\n%v\n%v", label, i, sa.Gates, sb.Gates)
		}
		if !reflect.DeepEqual(sa.Freqs, sb.Freqs) {
			t.Fatalf("%s: slice %d frequencies differ", label, i)
		}
		if sa.Colors != sb.Colors || sa.Delta != sb.Delta {
			t.Fatalf("%s: slice %d solver outcome differs", label, i)
		}
	}
}

// TestCachedCompilationIsDeterministic checks the engine's core contract:
// compiling with a shared (and pre-warmed) cache produces byte-identical
// schedules to compiling with no cache at all, for every strategy.
func TestCachedCompilationIsDeterministic(t *testing.T) {
	sys := testSystem(16)
	circs := map[string]*circuit.Circuit{
		"xeb-deep":    bench.XEB(sys.Device, 6, 7),
		"xeb-shallow": bench.XEB(sys.Device, 2, 3),
	}
	ctx := compile.NewContext(1)
	for name, c := range circs {
		for _, comp := range schedule.Extended() {
			label := comp.Name() + "/" + name
			uncached, err := comp.Compile(&compile.Context{}, c, sys, schedule.Options{})
			if err != nil {
				t.Fatalf("%s uncached: %v", label, err)
			}
			// First cached run fills the cache, second one hits it; both
			// must match the uncached compilation exactly.
			cold, err := comp.Compile(ctx, c, sys, schedule.Options{})
			if err != nil {
				t.Fatalf("%s cold cache: %v", label, err)
			}
			warm, err := comp.Compile(ctx, c, sys, schedule.Options{})
			if err != nil {
				t.Fatalf("%s warm cache: %v", label, err)
			}
			sameSchedule(t, label+" cold", uncached, cold)
			sameSchedule(t, label+" warm", uncached, warm)
		}
	}
	if ctx.Cache.TotalStats().Hits == 0 {
		t.Fatal("warm runs never hit the cache")
	}
}

// TestCacheSharedAcrossSystems checks that independently constructed
// systems with identical content share cache entries (content signatures,
// not pointers, key the cache).
func TestCacheSharedAcrossSystems(t *testing.T) {
	ctx := compile.NewContext(1)
	sysA := testSystem(9)
	sysB := testSystem(9)
	if compile.SystemSignature(sysA) != compile.SystemSignature(sysB) {
		t.Fatal("identical systems got different signatures")
	}
	c := bench.XEB(sysA.Device, 4, 7)
	if _, err := (schedule.ColorDynamic{}).Compile(ctx, c, sysA, schedule.Options{}); err != nil {
		t.Fatal(err)
	}
	before := ctx.Cache.StatsByRegion()[compile.RegionSlice]
	if _, err := (schedule.ColorDynamic{}).Compile(ctx, c, sysB, schedule.Options{}); err != nil {
		t.Fatal(err)
	}
	after := ctx.Cache.StatsByRegion()[compile.RegionSlice]
	if after.Hits <= before.Hits {
		t.Fatalf("second system reused no slice solutions: %+v -> %+v", before, after)
	}
	if after.Misses != before.Misses {
		t.Fatalf("second system recomputed %d slice solutions", after.Misses-before.Misses)
	}

	sysC := phys.NewSystem(topology.SquareGrid(9), phys.DefaultParams(), 43) // different chip draw
	if compile.SystemSignature(sysA) == compile.SystemSignature(sysC) {
		t.Fatal("different fabrication draws must not share a signature")
	}
}

// TestBatchCompileMatchesSerial checks that the concurrent batch engine
// returns exactly what serial compilation returns, job for job.
func TestBatchCompileMatchesSerial(t *testing.T) {
	sys := testSystem(9)
	circ := bench.XEB(sys.Device, 4, 7)
	var jobs []core.BatchJob
	for _, s := range core.Strategies() {
		jobs = append(jobs, core.BatchJob{
			Key: s, Circuit: circ, System: sys, Strategy: s,
		})
	}
	batch, err := core.BatchCollect(compile.NewContext(4), jobs)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range core.Strategies() {
		serial, err := core.Compile(circ, sys, s, core.Config{})
		if err != nil {
			t.Fatal(err)
		}
		sameSchedule(t, s, serial.Schedule, batch[s].Schedule)
		if serial.Report.Success != batch[s].Report.Success {
			t.Fatalf("%s: success %v (serial) vs %v (batch)", s, serial.Report.Success, batch[s].Report.Success)
		}
	}
}

// TestSliceSingleFlightStress checks the engine-level exactly-one-compute
// contract: many workers missing on the same slice key at once must run
// one solve, not one per worker (pre-v2, concurrent misses computed
// redundantly and the last Put won). The global counters must say the
// same: one miss per round, and a hit for every worker the flight served.
// Meaningful under -race.
func TestSliceSingleFlightStress(t *testing.T) {
	ctx := compile.NewContext(0)
	const goroutines = 24
	const rounds = 50
	for r := 0; r < rounds; r++ {
		before := ctx.Cache.StatsByRegion()[compile.RegionSlice]
		key := compile.SliceKey("sig", 2, 2, []int{r, r + 1, r + 7})
		var computes atomic.Int64
		var ready, done sync.WaitGroup
		ready.Add(goroutines)
		done.Add(goroutines)
		start := make(chan struct{})
		for g := 0; g < goroutines; g++ {
			go func() {
				defer done.Done()
				ready.Done()
				<-start
				sol, err := ctx.Slice(key, func() (compile.SliceSolution, error) {
					computes.Add(1)
					time.Sleep(time.Millisecond)
					return compile.SliceSolution{NumColors: r}, nil
				})
				if err != nil || sol.NumColors != r {
					t.Errorf("round %d: Slice = %+v, %v", r, sol, err)
				}
			}()
		}
		ready.Wait()
		close(start)
		done.Wait()
		if n := computes.Load(); n != 1 {
			t.Fatalf("round %d: %d computes for one key, want exactly 1", r, n)
		}
		after := ctx.Cache.StatsByRegion()[compile.RegionSlice]
		if misses, hits := after.Misses-before.Misses, after.Hits-before.Hits; misses != 1 || hits != goroutines-1 {
			t.Fatalf("round %d: global slice stats gained %d misses and %d hits, want 1 and %d", r, misses, hits, goroutines-1)
		}
	}
}

// TestWarmStartCompilationIsDeterministic checks the persistence
// counterpart of the determinism contract: a process that loads another
// process's cache snapshot (simulated here by a fresh Context + Load)
// produces byte-identical schedules to an uncached compilation, while
// actually hitting the restored entries.
func TestWarmStartCompilationIsDeterministic(t *testing.T) {
	sys := testSystem(16)
	circ := bench.XEB(sys.Device, 5, 7)
	path := filepath.Join(t.TempDir(), "cache.snap")

	// "Process 1": compile everything, snapshot the cache.
	first := compile.NewContext(1)
	for _, comp := range schedule.Extended() {
		if _, err := comp.Compile(first, circ, sys, schedule.Options{}); err != nil {
			t.Fatalf("%s seed run: %v", comp.Name(), err)
		}
	}
	if err := first.Cache.Save(path); err != nil {
		t.Fatal(err)
	}

	// "Process 2": cold context warmed only from disk.
	warm := compile.NewContext(1)
	n, err := warm.Cache.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("snapshot restored no entries")
	}
	for _, comp := range schedule.Extended() {
		label := comp.Name() + "/warm-start"
		uncached, err := comp.Compile(&compile.Context{}, circ, sys, schedule.Options{})
		if err != nil {
			t.Fatalf("%s uncached: %v", label, err)
		}
		warmed, err := comp.Compile(warm, circ, sys, schedule.Options{})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		sameSchedule(t, label, uncached, warmed)
	}
	st := warm.Cache.TotalStats()
	if st.Hits == 0 {
		t.Fatal("warm start never hit the restored cache")
	}
	for _, region := range []string{compile.RegionSlice, compile.RegionSMT, compile.RegionParking, compile.RegionStatic} {
		rs := warm.Cache.StatsByRegion()[region]
		if rs.Misses != 0 {
			t.Errorf("region %s recomputed %d entries despite warm start", region, rs.Misses)
		}
	}
}

// TestBatchCompileRace exercises the full pipeline concurrently with a
// shared cache; meaningful under -race.
func TestBatchCompileRace(t *testing.T) {
	sys := testSystem(9)
	ctx := compile.NewContext(8)
	var jobs []core.BatchJob
	for i := 0; i < 4; i++ {
		circ := bench.XEB(sys.Device, 3+i, 7)
		for _, s := range core.Strategies() {
			jobs = append(jobs, core.BatchJob{
				Key: s + string(rune('0'+i)), Circuit: circ, System: sys, Strategy: s,
			})
		}
	}
	if _, err := core.BatchCollect(ctx, jobs); err != nil {
		t.Fatal(err)
	}
	if ctx.Cache.TotalStats().Hits == 0 {
		t.Fatal("no cross-job cache sharing observed")
	}
}
