package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fastsc/internal/circuit"
	"fastsc/internal/compile"
	"fastsc/internal/core"
	"fastsc/internal/mapping"
	"fastsc/internal/noise"
	"fastsc/internal/schedule"
)

// layer is the module a span's time belongs to. The names are the
// repository's package names; bench is the op itself, so its self time is
// the part of an op no module call covers (engine scheduling, idle
// workers, the harness).
type layer uint8

const (
	layerBench layer = iota
	layerCore
	layerMapping
	layerXtalk
	layerCircuit
	layerSchedule
	layerNoise
	layerQASM
	numLayers
)

var layerNames = [numLayers]string{"bench", "core", "mapping", "xtalk", "circuit", "schedule", "noise", "qasm"}

// spanNames name the call each layer's spans time.
var spanNames = [numLayers]string{
	"op", "core.job", "mapping.route", "xtalk.build", "circuit.analyze",
	"schedule.compile", "noise.evaluate", "qasm.parse",
}

// span is one timed call. Times are nanoseconds since the tracer's base;
// ids are allocated when a span opens, so a parent's id is below its
// children's.
type span struct {
	id, parent, op int32
	layer          layer
	start, end     int64
}

// opRecord is one traced op's batch submission: when the jobs were handed
// to the engine and how many workers could run them.
type opRecord struct {
	submit  int64
	workers int
}

// tracer keeps every span of a traced run in memory; they are written out
// once, when the run ends.
type tracer struct {
	base time.Time
	ids  atomic.Int32
	mu   sync.Mutex
	ops  map[int32]opRecord
	all  []span
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), ops: make(map[int32]opRecord)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// spanSet collects the spans one goroutine records; flush hands them to
// the tracer in one locked append.
type spanSet struct {
	t     *tracer
	op    int32
	spans []span
}

func (t *tracer) set(op int32) *spanSet { return &spanSet{t: t, op: op} }

// open starts a span under parent (0 for an op's root) and returns its
// index in the set.
func (s *spanSet) open(parent int32, l layer) int {
	s.spans = append(s.spans, span{id: s.t.ids.Add(1), parent: parent, op: s.op, layer: l, start: s.t.now()})
	return len(s.spans) - 1
}

func (s *spanSet) close(i int)                { s.spans[i].end = s.t.now() }
func (s *spanSet) id(i int) int32             { return s.spans[i].id }
func (s *spanSet) dur(i int) float64          { return float64(s.spans[i].end - s.spans[i].start) }
func (s *spanSet) flush()                     { s.t.mu.Lock(); s.t.all = append(s.t.all, s.spans...); s.t.mu.Unlock() }
func (t *tracer) record(op int32, r opRecord) { t.mu.Lock(); t.ops[op] = r; t.mu.Unlock() }

// jobResult is what the checks read from one compile job.
type jobResult struct {
	key     string
	success float64
	slices  int
	swaps   int
	sched   *schedule.Schedule
}

// untracedBatch runs jobs through core.BatchCollect, the path every
// untraced op takes, and returns the results in job order.
func untracedBatch(ctx *compile.Context, jobs []core.BatchJob) ([]*jobResult, error) {
	res, err := core.BatchCollect(ctx, jobs)
	if err != nil {
		return nil, err
	}
	out := make([]*jobResult, len(jobs))
	for i, j := range jobs {
		r := res[j.Key]
		out[i] = &jobResult{key: j.Key, success: r.Report.Success, slices: r.Schedule.Depth(), swaps: r.SwapCount, sched: r.Schedule}
	}
	return out, nil
}

// tracedBatch runs jobs through the batch engine (compile.Context's
// RunBatchCtx, which core.BatchCollect wraps) as op of t, each job a child
// of the span root. Errors are reported like core.BatchCollect's: the
// first failed job in submission order.
func tracedBatch(t *tracer, op, root int32, ctx *compile.Context, jobs []core.BatchJob) ([]*jobResult, error) {
	ejobs := make([]compile.Job, len(jobs))
	for i, j := range jobs {
		ejobs[i] = compile.Job{Key: j.Key, Run: func(c *compile.Context) (any, error) {
			s := t.set(op)
			defer s.flush()
			js := s.open(root, layerCore)
			defer s.close(js)
			return compileSteps(c, s, s.id(js), j)
		}}
	}
	t.record(op, opRecord{submit: t.now(), workers: min(ctx.Workers, len(jobs))})
	out := make([]*jobResult, len(jobs))
	errs := make([]error, len(jobs))
	for o := range ctx.RunBatchCtx(context.Background(), ejobs) {
		if o.Err != nil {
			errs[o.Index] = o.Err
			continue
		}
		out[o.Index] = o.Value.(*jobResult)
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("job %q (%s): %w", jobs[i].Key, jobs[i].Strategy, err)
		}
	}
	return out, nil
}

// compileSteps performs core.CompileCtx's steps one public call at a time,
// each inside a span under job: route, crosstalk graph, dependency
// analysis, schedule, evaluation. The crosstalk graph and the analysis are
// looked up before the scheduler asks for them, with the same keys, so the
// scheduler's own lookups hit and their cost shows in their own layers.
// The run's checks compare every result with the untraced path's, so a
// change to core.CompileCtx that this replay does not follow fails the
// benchmark instead of tracing something else.
func compileSteps(c *compile.Context, s *spanSet, job int32, j core.BatchJob) (*jobResult, error) {
	comp := schedule.ByName(j.Strategy)
	if comp == nil {
		return nil, fmt.Errorf("unknown strategy %q", j.Strategy)
	}
	i := s.open(job, layerMapping)
	routed, err := c.Route(j.Circuit, j.System.Device, mapping.Options{Placement: string(j.Config.Placement), Router: j.Config.Router})
	s.close(i)
	if err != nil {
		return nil, err
	}
	i = s.open(job, layerXtalk)
	c.Xtalk(j.System.Device, xtalkDistance(j.Config.Schedule))
	s.close(i)
	i = s.open(job, layerCircuit)
	c.Analysis(scheduledCircuit(routed.Routed, j.System.Device.Qubits, j.Config.Schedule.Decompose))
	s.close(i)
	i = s.open(job, layerSchedule)
	sched, err := comp.Compile(c, routed.Routed, j.System, j.Config.Schedule)
	s.close(i)
	if err != nil {
		return nil, err
	}
	nopt := noise.DefaultOptions()
	if j.Config.Noise != nil {
		nopt = *j.Config.Noise
	}
	i = s.open(job, layerNoise)
	rep := noise.Evaluate(sched, nopt)
	s.close(i)
	return &jobResult{key: j.Key, success: rep.Success, slices: sched.Depth(), swaps: routed.SwapCount, sched: sched}, nil
}

// xtalkDistance is the crosstalk distance the scheduler uses for opts
// (schedule.Options defaults an unset distance to 2).
func xtalkDistance(opts schedule.Options) int {
	if opts.XtalkDistance > 0 {
		return opts.XtalkDistance
	}
	return 2
}

// scheduledCircuit is the circuit whose analysis the scheduler looks up:
// the routed circuit decomposed to native gates and widened to the whole
// device.
func scheduledCircuit(routed *circuit.Circuit, qubits int, d circuit.DecomposeStrategy) *circuit.Circuit {
	dec := circuit.Decompose(routed, d)
	if dec.NumQubits < qubits {
		wide := circuit.New(qubits)
		wide.Gates = dec.Gates
		dec = wide
	}
	return dec
}

// layerSplit is what a traced run's spans add up to.
type layerSplit struct {
	ops  int
	wall float64 // Σ op wall time, ns
	// self is each layer's share of op wall time, ns: at every instant the
	// innermost open spans split the time equally (one span alone gets all
	// of it; with a job on each of two workers, each job's innermost span
	// gets half). The layers' self times therefore add up to op wall time,
	// and bench's self time is the part no module call covered.
	self  [numLayers]float64
	dur   [numLayers]float64 // Σ span durations, ns
	count [numLayers]int
	// jobMs are job durations, waitMs the time from batch submission to
	// each job's start.
	jobMs, waitMs []float64
	// busy is Σ job time, capacity Σ workers × (last job end − submission).
	busy, capacity float64
}

// split attributes every span of the run to its layer.
func (t *tracer) split() layerSplit {
	var ls layerSplit
	byOp := make(map[int32][]span)
	for _, s := range t.all {
		byOp[s.op] = append(byOp[s.op], s)
	}
	for op, spans := range byOp {
		ls.ops++
		rec, batched := t.ops[op]
		var lastEnd int64
		for _, s := range spans {
			d := float64(s.end - s.start)
			ls.dur[s.layer] += d
			ls.count[s.layer]++
			switch s.layer {
			case layerBench:
				ls.wall += d
			case layerCore:
				ls.jobMs = append(ls.jobMs, d/1e6)
				ls.busy += d
				lastEnd = max(lastEnd, s.end)
				if batched {
					ls.waitMs = append(ls.waitMs, float64(s.start-rec.submit)/1e6)
				}
			}
		}
		if batched {
			ls.capacity += float64(rec.workers) * float64(lastEnd-rec.submit)
		}
		attribute(spans, &ls.self)
	}
	return ls
}

// attribute adds each layer's wall-clock share of one op's spans to self.
func attribute(spans []span, self *[numLayers]float64) {
	type event struct {
		t     int64
		start bool
		i     int
	}
	idx := make(map[int32]int, len(spans))
	evs := make([]event, 0, 2*len(spans))
	for i, s := range spans {
		idx[s.id] = i
		evs = append(evs, event{s.start, true, i}, event{s.end, false, i})
	}
	// At equal times, ends come before starts; ends close children before
	// parents and starts open parents before children (ids grow with
	// opening order).
	sort.Slice(evs, func(a, b int) bool {
		ea, eb := evs[a], evs[b]
		if ea.t != eb.t {
			return ea.t < eb.t
		}
		if ea.start != eb.start {
			return !ea.start
		}
		if ea.start {
			return spans[ea.i].id < spans[eb.i].id
		}
		return spans[ea.i].id > spans[eb.i].id
	})
	active := make([]bool, len(spans))
	kids := make([]int, len(spans))
	pos := make([]int, len(spans)) // index in leaves, or -1
	for i := range pos {
		pos[i] = -1
	}
	var leaves []int
	addLeaf := func(i int) { pos[i] = len(leaves); leaves = append(leaves, i) }
	dropLeaf := func(i int) {
		if p := pos[i]; p >= 0 {
			last := leaves[len(leaves)-1]
			leaves[p], pos[last] = last, p
			leaves = leaves[:len(leaves)-1]
			pos[i] = -1
		}
	}
	parentOf := func(i int) int {
		if p, ok := idx[spans[i].parent]; ok && active[p] {
			return p
		}
		return -1
	}
	var prev int64
	for _, e := range evs {
		if n := len(leaves); n > 0 && e.t > prev {
			share := float64(e.t-prev) / float64(n)
			for _, l := range leaves {
				self[spans[l].layer] += share
			}
		}
		prev = e.t
		p := parentOf(e.i)
		if e.start {
			active[e.i] = true
			if p >= 0 {
				if kids[p]++; kids[p] == 1 {
					dropLeaf(p)
				}
			}
			addLeaf(e.i)
			continue
		}
		active[e.i] = false
		dropLeaf(e.i)
		if p >= 0 {
			if kids[p]--; kids[p] == 0 {
				addLeaf(p)
			}
		}
	}
}

// spanMetrics sets the per-layer metrics that come from spans.
func spanMetrics(m map[string]float64, ls layerSplit) {
	jobs := float64(ls.count[layerCore])
	m["core.job_ms_p50"] = percentile(ls.jobMs, 0.50)
	m["core.job_ms_p95"] = percentile(ls.jobMs, 0.95)
	m["mapping.route_us_per_job"] = ratio(ls.dur[layerMapping]/1e3, jobs)
	m["circuit.analyze_us_per_job"] = ratio(ls.dur[layerCircuit]/1e3, jobs)
	m["xtalk.build_us_per_op"] = ratio(ls.dur[layerXtalk]/1e3, float64(ls.ops))
	m["schedule.compile_us_per_job"] = ratio(ls.dur[layerSchedule]/1e3, jobs)
	m["noise.evaluate_us_per_job"] = ratio(ls.dur[layerNoise]/1e3, jobs)
	m["noise.evaluate_share"] = ratio(ls.self[layerNoise], ls.wall)
	m["qasm.parse_share"] = ratio(ls.self[layerQASM], ls.wall)
	m["compile.engine_wait_ms_mean"] = mean(ls.waitMs)
	m["compile.worker_busy_frac"] = ratio(ls.busy, ls.capacity)
	m["bench.span_coverage"] = 1 - ratio(ls.self[layerBench], ls.wall)
}

// selfTable returns one line per layer: self time per op and share of op
// wall time.
func selfTable(workload string, ls layerSplit) []string {
	lines := []string{fmt.Sprintf("%s layer self times over %d traced ops (%.3f ms/op):", workload, ls.ops, ratio(ls.wall/1e6, float64(ls.ops)))}
	sum := 0.0
	for l := range numLayers {
		sum += ls.self[l]
		lines = append(lines, fmt.Sprintf("  %-9s %10.4f ms/op %6.2f%%", layerNames[l],
			ratio(ls.self[l]/1e6, float64(ls.ops)), 100*ratio(ls.self[l], ls.wall)))
	}
	return append(lines, fmt.Sprintf("  %-9s %10.4f ms/op %6.2f%%", "sum", ratio(sum/1e6, float64(ls.ops)), 100*ratio(sum, ls.wall)))
}

// writeSpans writes every span to path as one JSON object.
func (t *tracer) writeSpans(path, workload string, seed int64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "{\"workload\":%q,\"seed\":%d,\"spans\":[", workload, seed)
	for i, s := range t.all {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "\n{\"id\":%d,\"parent\":%d,\"op\":%d,\"name\":%q,\"start_ns\":%d,\"end_ns\":%d}",
			s.id, s.parent, s.op, spanNames[s.layer], s.start, s.end)
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
