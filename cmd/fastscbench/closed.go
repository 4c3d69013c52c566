package main

import (
	_ "embed"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"fastsc/internal/circuit"
	"fastsc/internal/compile"
	"fastsc/internal/core"
	"fastsc/internal/expt"
	"fastsc/internal/phys"
)

// fig9Golden holds every Fig 9 job's success rate, "<key>\t<%.17g>" per
// line, as written by `go test -run TestFig9Golden -update`.
//
//go:embed testdata/fig9.golden
var fig9Golden string

// closedLoop is a prepared closed-loop workload: one client runs an op,
// waits for it, checks it, and runs the next.
type closedLoop struct {
	// inputs is the number of distinct op inputs; op i runs input
	// i % inputs.
	inputs int
	jobs   func(in int) []core.BatchJob
	// shared is the Context every op runs on; nil gives each op a fresh
	// one.
	shared *compile.Context
	// check validates one op's results beyond their equality with each
	// job's first untraced result.
	check func(rs []*jobResult) error
	// refs are the first untraced result of each job, by key.
	refs map[string]*jobResult
	// last is the Context of the latest op, whose cache the snapshot
	// metrics save and load.
	last *compile.Context
}

// loopStats accumulates one stretch of ops.
type loopStats struct {
	ops, failed int
	okJobs      int
	latMs       []float64
	opSec       float64
	cache       map[string]compile.Stats
	swaps       int
	slices      int
	// probes, when the caller starts it with a probe before the first op,
	// collects a probe after every op too, numbered by the stretch's op
	// that follows it.
	probes []probeSample
}

func newLoopStats() *loopStats { return &loopStats{cache: make(map[string]compile.Stats)} }

func (w *closedLoop) ctx() *compile.Context {
	if w.shared != nil {
		return w.shared
	}
	return compile.NewContext(benchWorkers)
}

// op runs op i, traced when t is non-nil, and returns its results and
// latency.
func (w *closedLoop) op(i int, t *tracer) ([]*jobResult, time.Duration, map[string]compile.Stats, error) {
	ctx := w.ctx()
	w.last = ctx
	jobs := w.jobs(i % w.inputs)
	before := ctx.Stats()
	var rs []*jobResult
	var err error
	var lat time.Duration
	if t == nil {
		start := time.Now()
		rs, err = untracedBatch(ctx, jobs)
		lat = time.Since(start)
	} else {
		op := int32(i)
		s := t.set(op)
		root := s.open(0, layerBench)
		rs, err = tracedBatch(t, op, s.id(root), ctx, jobs)
		s.close(root)
		s.flush()
		lat = time.Duration(s.dur(root))
	}
	return rs, lat, statsDelta(ctx.Stats(), before), err
}

// verify checks op i's results: each equal to its job's first untraced
// result (recorded now for a job an untraced op ran first, computed now
// for one a traced op ran first), then the workload's own check.
func (w *closedLoop) verify(i int, rs []*jobResult, traced bool) error {
	for _, r := range rs {
		if _, ok := w.refs[r.key]; ok {
			continue
		}
		if !traced {
			w.refs[r.key] = r
			continue
		}
		ref, err := untracedBatch(compile.NewContext(benchWorkers), w.jobs(i%w.inputs))
		if err != nil {
			return fmt.Errorf("untraced reference: %w", err)
		}
		for _, x := range ref {
			w.refs[x.key] = x
		}
		break
	}
	for _, r := range rs {
		if err := sameResult(w.refs[r.key], r); err != nil {
			return err
		}
	}
	return w.check(rs)
}

// sameResult reports whether got differs from want, the untraced result of
// the same job, in success (bit for bit), slice count or swap count.
func sameResult(want, got *jobResult) error {
	if math.Float64bits(got.success) != math.Float64bits(want.success) || got.slices != want.slices || got.swaps != want.swaps {
		return fmt.Errorf("job %q: success %v, %d slices, %d swaps; the untraced run gave %v, %d, %d",
			want.key, got.success, got.slices, got.swaps, want.success, want.slices, want.swaps)
	}
	return nil
}

// run runs ops for d (at least one, at most maxOps when that is positive),
// numbering them from *next, checking each outside its timer.
func (w *closedLoop) run(d time.Duration, maxOps int, t *tracer, st *loopStats, next *int, log *failLog) {
	start := time.Now()
	for n := 0; n == 0 || (time.Since(start) < d && (maxOps <= 0 || n < maxOps)); n++ {
		i := *next
		*next++
		rs, lat, cs, err := w.op(i, t)
		st.ops++
		st.latMs = append(st.latMs, float64(lat)/1e6)
		st.opSec += lat.Seconds()
		addStats(st.cache, cs)
		if st.probes != nil {
			st.probes = append(st.probes, probeSample{n + 1, probeMs()})
		}
		if err == nil {
			err = w.verify(i, rs, t != nil)
		}
		if err != nil {
			st.failed++
			log.add("op %d: %v", i, err)
			continue
		}
		st.okJobs += len(rs)
		for _, r := range rs {
			st.swaps += r.swaps
			st.slices += r.slices
		}
	}
}

// measureClosed runs a prepared closed-loop workload. Untraced, it reports
// the end-to-end metrics of one stretch of cfg.seconds, with every op's
// time scaled to the reference host's speed by the probes within
// closedProbeReach ops of it (see probe.go), and notes the raw times.
// Traced, it runs half the time untraced (cache, allocation and latency
// baselines) and half traced, then saves and loads the last op's cache.
func measureClosed(w *closedLoop, cfg config, rep *report) (int, error) {
	m := rep.m
	next := 0
	if !cfg.trace {
		st := newLoopStats()
		st.probes = []probeSample{{0, probeMs()}}
		w.run(cfg.seconds, cfg.maxOps, nil, st, &next, &rep.fails)
		scaled := scaleToRef(st.latMs, st.probes, closedProbeReach)
		scaledSec := sum(scaled) / 1e3
		m["op_ms_p50"] = percentile(scaled, 0.50)
		m["op_ms_p95"] = percentile(scaled, 0.95)
		m["jobs_per_s"] = ratio(float64(st.okJobs), scaledSec)
		m["goodput_rps"] = ratio(float64(st.ops-st.failed), scaledSec)
		rep.notes = append(rep.notes, fmt.Sprintf("%s ops %d, raw setup_s %.4f s, raw op_ms_p50 %.4f ms, raw op_ms_p95 %.4f ms, raw jobs_per_s %.4g, probe_ms_p50 %.4f ms",
			cfg.workload, st.ops, m["setup_s"], percentile(st.latMs, 0.50), percentile(st.latMs, 0.95),
			ratio(float64(st.okJobs), st.opSec), probeMedian(st.probes)))
		m["setup_s"] *= probeRefMs / probeMedian(st.probes)
		return st.ops, nil
	}
	a := newLoopStats()
	m0 := readMem()
	w.run(cfg.seconds/2, cfg.maxOps, nil, a, &next, &rep.fails)
	allocMetrics(m, m0, readMem(), a.okJobs)
	cacheMetrics(m, a.cache, a.ops)
	m["mapping.swaps_per_op"] = ratio(float64(a.swaps), float64(a.ops-a.failed))
	m["schedule.slices_per_op"] = ratio(float64(a.slices), float64(a.ops-a.failed))

	b := newLoopStats()
	t := newTracer()
	w.run(cfg.seconds/2, cfg.maxOps, t, b, &next, &rep.fails)
	ls := t.split()
	spanMetrics(m, ls)
	m["bench.trace_overhead_pct"] = 100 * (ratio(mean(b.latMs), mean(a.latMs)) - 1)
	m["server.wire_share"] = 0 // no server on this workload
	if err := snapshotMetrics(m, w.last.Cache, cfg.dir); err != nil {
		return 0, err
	}
	rep.notes = append(rep.notes, selfTable(cfg.workload, ls)...)
	return a.ops + b.ops, finishTrace(t, cfg, rep)
}

// closedProbeReach is how many ops on each side of an op, beyond the ones
// next to it, a closed loop's probes reach: about a quarter second.
const closedProbeReach = 3

// snapshotMetrics saves cache to a snapshot and loads it into a fresh
// cache three times each, reporting the median times and the file size.
func snapshotMetrics(m map[string]float64, cache *compile.Cache, dir string) error {
	path := filepath.Join(dir, "snapshot.gob")
	defer os.Remove(path)
	var save, load []float64
	for range 3 {
		start := time.Now()
		if err := cache.Save(path); err != nil {
			return fmt.Errorf("snapshot save: %w", err)
		}
		save = append(save, float64(time.Since(start))/1e6)
		start = time.Now()
		if _, err := compile.NewCache(0).Load(path); err != nil {
			return fmt.Errorf("snapshot load: %w", err)
		}
		load = append(load, float64(time.Since(start))/1e6)
	}
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	m["compile.snapshot_save_ms"] = percentile(save, 0.5)
	m["compile.snapshot_load_ms"] = percentile(load, 0.5)
	m["compile.snapshot_mb"] = float64(fi.Size()) / (1 << 20)
	return nil
}

// sweepOrders is the number of job orders a sweep run cycles through, so
// that a run's median does not hang on how one order happens to balance
// the two workers.
const sweepOrders = 32

// fig9Jobs returns the Fig 9 sweep in suite order, built as
// expt.Fig9SuccessRates builds it: expt.Suite() × core.Strategies(), each
// benchmark on its own grid system with its natural placement.
func fig9Jobs() []core.BatchJob {
	var jobs []core.BatchJob
	for _, b := range expt.Suite() {
		sys := expt.GridSystem(b.Qubits)
		circ := b.Circuit(sys.Device)
		for _, s := range core.Strategies() {
			jobs = append(jobs, core.BatchJob{
				Key: b.Name + "/" + s, Circuit: circ, System: sys, Strategy: s,
				Config: core.Config{Placement: b.Placement},
			})
		}
	}
	return jobs
}

// parseGolden reads fig9Golden.
func parseGolden() (map[string]float64, error) {
	golden := make(map[string]float64)
	for _, line := range strings.Split(strings.TrimSpace(fig9Golden), "\n") {
		key, val, ok := strings.Cut(line, "\t")
		if !ok {
			return nil, fmt.Errorf("fig9.golden: malformed line %q", line)
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("fig9.golden: %q: %w", line, err)
		}
		golden[key] = v
	}
	return golden, nil
}

// checkSweep checks a sweep op against the golden success rates and every
// schedule's own invariants.
func checkSweep(golden map[string]float64) func([]*jobResult) error {
	return func(rs []*jobResult) error {
		if len(rs) != len(golden) {
			return fmt.Errorf("%d jobs, fig9.golden has %d", len(rs), len(golden))
		}
		for _, r := range rs {
			want, ok := golden[r.key]
			if !ok {
				return fmt.Errorf("job %q is not in fig9.golden", r.key)
			}
			if math.Float64bits(r.success) != math.Float64bits(want) {
				return fmt.Errorf("job %q: success %.17g, fig9.golden has %.17g", r.key, r.success, want)
			}
			if err := r.sched.Verify(); err != nil {
				return fmt.Errorf("job %q: %w", r.key, err)
			}
		}
		return nil
	}
}

// setupSweep prepares sweep-warm (warm: one Context for every op, restored
// from a snapshot a seed sweep saved) or sweep-cold (a fresh Context per
// op): it draws the job orders from the seed and ends with one untraced
// warm-up op. Order 0, which the seed sweep and the warm-up op run, is the
// suite's own order, so that set-up time does not depend on the seed: an
// op's time depends on how its order balances the two workers.
func setupSweep(cfg config, warm bool) (*closedLoop, error) {
	golden, err := parseGolden()
	if err != nil {
		return nil, err
	}
	base := fig9Jobs()
	rng := rand.New(rand.NewSource(cfg.seed))
	orders := make([][]core.BatchJob, sweepOrders)
	for i := range orders {
		orders[i] = append([]core.BatchJob(nil), base...)
		if i > 0 {
			rng.Shuffle(len(base), func(a, b int) { orders[i][a], orders[i][b] = orders[i][b], orders[i][a] })
		}
	}
	w := &closedLoop{
		inputs: sweepOrders,
		jobs:   func(in int) []core.BatchJob { return orders[in] },
		check:  checkSweep(golden),
		refs:   make(map[string]*jobResult),
	}
	if warm {
		seedCtx := compile.NewContext(benchWorkers)
		if _, err := core.BatchCollect(seedCtx, orders[0]); err != nil {
			return nil, fmt.Errorf("seed sweep: %w", err)
		}
		path := filepath.Join(cfg.dir, "sweep-warm.snap")
		defer os.Remove(path)
		if err := seedCtx.Cache.Save(path); err != nil {
			return nil, fmt.Errorf("snapshot save: %w", err)
		}
		w.shared = compile.NewContext(benchWorkers)
		if n, err := w.shared.Cache.Load(path); err != nil || n == 0 {
			return nil, fmt.Errorf("snapshot load: %d entries, %v", n, err)
		}
	}
	rs, _, _, err := w.op(0, nil)
	if err == nil {
		err = w.verify(0, rs, false)
	}
	if err != nil {
		return nil, fmt.Errorf("warm-up sweep: %w", err)
	}
	return w, nil
}

// deepCircuits is the number of deep circuits a deep-100q run cycles
// through.
const deepCircuits = 16

// deepCircuit draws one deep 100-qubit circuit the way
// internal/bench's BenchmarkLargeCircuitCompile draws its fixed one: 6000
// gates, a quarter H, a quarter RZ and half CNOTs on random couplers.
func deepCircuit(sys *phys.System, seed int64) *circuit.Circuit {
	rng := rand.New(rand.NewSource(seed))
	edges := sys.Device.Coupling.Edges()
	n := sys.Device.Qubits
	c := circuit.New(n)
	for range 6000 {
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

// setupDeep prepares deep-100q: it draws the circuits and checks that the
// first two compile to the same success and slice count with one worker
// as with benchWorkers (the intra-circuit parallel path).
func setupDeep(cfg config) (*closedLoop, error) {
	sys := expt.GridSystem(100)
	rng := rand.New(rand.NewSource(cfg.seed))
	jobs := make([][]core.BatchJob, deepCircuits)
	for i := range jobs {
		jobs[i] = []core.BatchJob{{
			Key: fmt.Sprintf("deep-%d", i), Circuit: deepCircuit(sys, rng.Int63()),
			System: sys, Strategy: core.ColorDynamic,
		}}
	}
	w := &closedLoop{
		inputs: deepCircuits,
		jobs:   func(in int) []core.BatchJob { return jobs[in] },
		check:  checkDeep,
		refs:   make(map[string]*jobResult),
	}
	for in := range 2 {
		serial, err := untracedBatch(compile.NewContext(1), jobs[in])
		if err != nil {
			return nil, fmt.Errorf("serial compile: %w", err)
		}
		par, _, _, err := w.op(in, nil)
		if err != nil {
			return nil, fmt.Errorf("parallel compile: %w", err)
		}
		if serial[0].success != par[0].success || serial[0].slices != par[0].slices {
			return nil, fmt.Errorf("circuit %d: %d workers give success %v in %d slices, 1 worker gives %v in %d",
				in, benchWorkers, par[0].success, par[0].slices, serial[0].success, serial[0].slices)
		}
		if err := w.verify(in, par, false); err != nil {
			return nil, err
		}
	}
	return w, nil
}

func checkDeep(rs []*jobResult) error {
	r := rs[0]
	if err := r.sched.Verify(); err != nil {
		return fmt.Errorf("%s: %w", r.key, err)
	}
	if !(r.success > 0 && r.success <= 1) {
		return fmt.Errorf("%s: success %v outside (0, 1]", r.key, r.success)
	}
	return nil
}
