package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"fastsc/internal/compile"
)

// metricDef is one reported number: its name, unit and which direction is
// better. The two lists below are what a run prints; BENCHMARK.json at the
// repository root repeats them with their bounds (main_test.go keeps the
// two in step).
type metricDef struct{ name, unit, better string }

// endToEnd are the metrics a user of the compiler or the daemon sees,
// printed by every untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"op_ms_p50", "ms", "lower"},
	{"op_ms_p95", "ms", "lower"},
	{"jobs_per_s", "jobs/s", "higher"},
	{"goodput_rps", "req/s", "higher"},
	{"peak_rss_mb", "MiB", "lower"},
}

// regions are the compile cache regions whose hit ratio and misses per op
// every traced run reports.
var regions = []string{
	compile.RegionSMT, compile.RegionSlice, compile.RegionParking, compile.RegionStatic,
	compile.RegionXtalk, compile.RegionCircuit, compile.RegionRoute,
}

// perLayer are the metrics of single layers, printed by every traced run.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"core.job_ms_p50", "ms", "lower"},
		{"core.job_ms_p95", "ms", "lower"},
		{"core.alloc_kb_per_job", "KiB", "lower"},
		{"core.mallocs_per_job", "count", "lower"},
		{"mapping.route_us_per_job", "us", "lower"},
		{"mapping.swaps_per_op", "count", "lower"},
		{"circuit.analyze_us_per_job", "us", "lower"},
		{"xtalk.build_us_per_op", "us", "lower"},
		{"schedule.compile_us_per_job", "us", "lower"},
		{"schedule.slices_per_op", "count", "lower"},
		{"noise.evaluate_us_per_job", "us", "lower"},
		{"noise.evaluate_share", "fraction", "lower"},
	}
	for _, r := range regions {
		defs = append(defs,
			metricDef{"compile." + r + ".hit_ratio", "fraction", "higher"},
			metricDef{"compile." + r + ".misses_per_op", "count", "lower"})
	}
	return append(defs,
		metricDef{"compile.engine_wait_ms_mean", "ms", "lower"},
		metricDef{"compile.worker_busy_frac", "fraction", "higher"},
		metricDef{"compile.snapshot_save_ms", "ms", "lower"},
		metricDef{"compile.snapshot_load_ms", "ms", "lower"},
		metricDef{"compile.snapshot_mb", "MiB", "lower"},
		metricDef{"server.wire_share", "fraction", "lower"},
		metricDef{"qasm.parse_share", "fraction", "lower"},
		metricDef{"bench.trace_overhead_pct", "%", "lower"},
		metricDef{"bench.span_coverage", "fraction", "higher"},
	)
}()

// metricValue is one metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a workload run prints as its last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// fill sets every metric of defs from values, failing on a missing or
// non-finite value so a run never prints a partial or unencodable result.
func (r *result) fill(defs []metricDef, values map[string]float64) error {
	r.Metrics = make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.name, v)
		}
		r.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return nil
}

// percentile returns the p-quantile (0..1) of xs by linear interpolation
// between order statistics. xs is sorted in place.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	h := p * float64(len(xs)-1)
	lo := int(h)
	if lo >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	return xs[lo] + (h-float64(lo))*(xs[lo+1]-xs[lo])
}

// quartiles returns the three quartile cut points of xs with the method of
// Python's statistics.quantiles(xs, n=4) (the default "exclusive" method),
// so the spreads this program reports match that function's. It needs at
// least two values; with one it returns that value three times.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	ld := len(d)
	if ld == 1 {
		return d[0], d[0], d[0]
	}
	var q [3]float64
	m := ld + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), ld-1)
		delta := float64(i*m - j*4)
		q[i-1] = (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 { return ratio(sum(xs), float64(len(xs))) }

// ratio returns a/b, or 0 when b is 0 (an unused layer or region).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// statsDelta returns after − before, region by region.
func statsDelta(after, before map[string]compile.Stats) map[string]compile.Stats {
	out := make(map[string]compile.Stats, len(after))
	for r, a := range after {
		b := before[r]
		out[r] = compile.Stats{
			Hits: a.Hits - b.Hits, WarmHits: a.WarmHits - b.WarmHits, Misses: a.Misses - b.Misses,
		}
	}
	return out
}

// addStats accumulates src into dst, region by region.
func addStats(dst, src map[string]compile.Stats) {
	for r, s := range src {
		d := dst[r]
		d.Hits += s.Hits
		d.WarmHits += s.WarmHits
		d.Misses += s.Misses
		dst[r] = d
	}
}

// cacheMetrics turns cache counters gathered over ops operations into the
// compile.* hit-ratio and misses-per-op metrics.
func cacheMetrics(m map[string]float64, st map[string]compile.Stats, ops int) {
	for _, r := range regions {
		s := st[r]
		m["compile."+r+".hit_ratio"] = s.HitRate()
		m["compile."+r+".misses_per_op"] = ratio(float64(s.Misses), float64(ops))
	}
}

// memSample is the allocation counters of the whole process at one moment.
type memSample struct{ alloc, mallocs uint64 }

func readMem() memSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSample{alloc: ms.TotalAlloc, mallocs: ms.Mallocs}
}

// allocMetrics sets core.alloc_kb_per_job and core.mallocs_per_job from
// the process's allocation counters over a stretch that ran jobs jobs.
func allocMetrics(m map[string]float64, before, after memSample, jobs int) {
	m["core.alloc_kb_per_job"] = ratio(float64(after.alloc-before.alloc)/1024, float64(jobs))
	m["core.mallocs_per_job"] = ratio(float64(after.mallocs-before.mallocs), float64(jobs))
}

// peakRSSMiB returns the process's peak resident set (VmHWM) in MiB. Where
// /proc is missing it falls back to the memory the Go runtime obtained
// from the system.
func peakRSSMiB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
