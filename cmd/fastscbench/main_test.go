package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"fastsc/internal/compile"
	"fastsc/internal/expt"
)

var update = flag.Bool("update", false, "rewrite testdata/fig9.golden from the current compiler")

// TestFig9Golden pins the sweep's success rates to testdata/fig9.golden;
// with -update it rewrites the file instead. Either way the sweep must
// give exactly what expt.Fig9SuccessRates (cmd/experiments fig9) gives.
func TestFig9Golden(t *testing.T) {
	jobs := fig9Jobs()
	rs, err := untracedBatch(compile.NewContext(benchWorkers), jobs)
	if err != nil {
		t.Fatal(err)
	}
	fig9, err := expt.Fig9SuccessRates(compile.NewContext(benchWorkers))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rs {
		bench, strategy, _ := strings.Cut(r.key, "/")
		if want := fig9.Success[bench][strategy]; math.Float64bits(r.success) != math.Float64bits(want) {
			t.Errorf("%s: success %v, expt.Fig9SuccessRates gives %v", r.key, r.success, want)
		}
	}
	sort.Slice(rs, func(i, j int) bool { return rs[i].key < rs[j].key })
	var b strings.Builder
	for _, r := range rs {
		fmt.Fprintf(&b, "%s\t%.17g\n", r.key, r.success)
	}
	if *update {
		if err := os.WriteFile(filepath.Join("testdata", "fig9.golden"), []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	golden, err := parseGolden()
	if err != nil {
		t.Fatal(err)
	}
	if err := checkSweep(golden)(rs); err != nil {
		t.Fatal(err)
	}
}

// TestWorkloads runs every workload for a few ops, untraced and traced,
// and checks that nothing failed, that the traced pipeline gave the
// untraced results (the harness fails an op otherwise) and that each run
// emits exactly the metrics BENCHMARK.json lists.
func TestWorkloads(t *testing.T) {
	bf, err := readBenchmarkFile()
	if err != nil {
		t.Fatal(err)
	}
	names := func(defs []metricDef) []string {
		var out []string
		for _, d := range defs {
			out = append(out, d.name+" "+d.unit+" "+d.better)
		}
		return out
	}
	var e2e, layers, wl []string
	for _, e := range bf.EndToEnd {
		e2e = append(e2e, e.Name+" "+e.Unit+" "+e.Better)
	}
	for _, l := range bf.PerLayer {
		layers = append(layers, l.Name+" "+l.Unit+" "+l.Better)
	}
	for _, w := range bf.Workloads {
		wl = append(wl, w.Name)
	}
	if got := strings.Join(names(endToEnd), ","); got != strings.Join(e2e, ",") {
		t.Errorf("end-to-end metrics %s, BENCHMARK.json lists %s", got, strings.Join(e2e, ","))
	}
	if got := strings.Join(names(perLayer), ","); got != strings.Join(layers, ",") {
		t.Errorf("per-layer metrics %s, BENCHMARK.json lists %s", got, strings.Join(layers, ","))
	}
	if got := workloadNames(); got != strings.Join(wl, ", ") {
		t.Errorf("workloads %s, BENCHMARK.json lists %s", got, strings.Join(wl, ", "))
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w.name, trace), func(t *testing.T) {
				dir := t.TempDir()
				cfg := config{
					workload: w.name, seed: 3, seconds: 200 * time.Millisecond, trace: trace,
					spans: filepath.Join(dir, "spans.json"), dir: dir, setupReps: 1, maxOps: 2,
				}
				res, rep, err := measure(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 {
					t.Fatalf("%d of %d ops failed: %v", res.Failed, res.Attempted, rep.fails.msgs)
				}
				want := endToEnd
				if trace {
					want = perLayer
					if _, err := os.Stat(cfg.spans); err != nil {
						t.Error(err)
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, d := range want {
					if v, ok := res.Metrics[d.name]; !ok || v.Unit != d.unit {
						t.Errorf("metric %s: %+v, want unit %s", d.name, v, d.unit)
					}
				}
			})
		}
	}
}

// TestQuartiles pins quartiles to Python's statistics.quantiles(n=4).
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
	} {
		q1, q2, q3 := quartiles(c.in)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// TestScaleToRef checks that an op is scaled by the median of the probes
// in reach and that one with none in reach takes the median of all.
func TestScaleToRef(t *testing.T) {
	ref := probeRefMs
	probes := []probeSample{{0, ref}, {1, 3 * ref}, {5, 4 * ref}, {9, 4 * ref}}
	times := []float64{10, 10, 10, 10, 10}
	for _, c := range []struct {
		w    int
		want []float64
	}{
		// Op i reaches the probes before ops i−w to i+w+1; ops 2 and 3
		// reach none at w = 0 and take the median of all four, 3.5·ref.
		{0, []float64{10 / 2.0, 10 / 3.0, 10 / 3.5, 10 / 3.5, 10 / 4.0}},
		{1, []float64{10 / 2.0, 10 / 2.0, 10 / 3.0, 10 / 4.0, 10 / 4.0}},
	} {
		got := scaleToRef(times, probes, c.w)
		for i := range c.want {
			if math.Abs(got[i]-c.want[i]) > 1e-9 {
				t.Errorf("w=%d: op %d scaled to %v, want %v", c.w, i, got[i], c.want[i])
			}
		}
	}
}

// TestAttribute checks the wall-clock split: a job alone owns its time,
// two overlapping jobs share theirs, and time no span covers is the op's.
func TestAttribute(t *testing.T) {
	spans := []span{
		{id: 1, layer: layerBench, start: 0, end: 100},
		{id: 2, parent: 1, layer: layerCore, start: 10, end: 60},
		{id: 3, parent: 2, layer: layerNoise, start: 20, end: 60},
		{id: 4, parent: 1, layer: layerCore, start: 40, end: 90},
	}
	var self [numLayers]float64
	attribute(spans, &self)
	// 0–10 op; 10–20 job 2; 20–40 noise; 40–60 noise and job 4 split;
	// 60–90 job 4; 90–100 op.
	want := map[layer]float64{layerBench: 20, layerCore: 10 + 10 + 30, layerNoise: 20 + 10}
	for l := range numLayers {
		if math.Abs(self[l]-want[l]) > 1e-9 {
			t.Errorf("%s self %v, want %v", layerNames[l], self[l], want[l])
		}
	}
}

// TestJudge covers each verdict of the compare rule.
func TestJudge(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, c := range []struct {
		name           string
		parent, change []float64
		want           string
	}{
		{"faster", base, shift(0.8), "better"},
		{"slower", base, shift(1.2), "worse"},
		{"same", base, shift(1.001), "unchanged"},
		{"noisy", noisy, shift(0.99), "unresolved"},
	} {
		if got := judge(c.parent, c.change, false, 0.1).verdict; got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

// TestCompare runs compare mode on synthetic run files: a change 30% slower
// on every run is worse, a traced run's file is skipped, and a closed loop
// gets no goodput_rps verdict.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(side string, seed int, opMs float64, trace int) {
		t.Helper()
		if err := os.MkdirAll(filepath.Join(dir, side), 0o755); err != nil {
			t.Fatal(err)
		}
		res := result{Correct: true, Attempted: 100, Metrics: map[string]metricValue{}}
		for _, d := range endToEnd {
			res.Metrics[d.name] = metricValue{Value: 10 + float64(seed%3)/100, Unit: d.unit}
		}
		res.Metrics["op_ms_p50"] = metricValue{Value: opMs, Unit: "ms"}
		line, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		body := fmt.Sprintf("fastscbench workload=sweep-warm seed=%d seconds=30 trace=%d\n%s\n", seed, trace, line)
		name := filepath.Join(dir, side, fmt.Sprintf("sweep-warm-%d-%d.json", seed, trace))
		if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var files []string
	for _, side := range []string{"parent", "change"} {
		for seed := 1; seed <= 10; seed++ {
			ms := 20 + float64(seed)/10
			if side == "change" {
				ms *= 1.3
			}
			write(side, seed, ms, 0)
		}
		write(side, 99, 1, 1)
		matches, err := filepath.Glob(filepath.Join(dir, side, "*.json"))
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, matches...)
	}
	var out, errOut bytes.Buffer
	if code := runCompare(files, &out, &errOut); code != 1 {
		t.Fatalf("exit %d, want 1 (a worse metric); stderr %s", code, errOut.String())
	}
	for _, line := range strings.Split(out.String(), "\n") {
		fields := strings.Fields(line)
		if len(fields) < 2 || fields[0] != "sweep-warm" {
			continue
		}
		want := "unchanged"
		switch fields[1] {
		case "op_ms_p50":
			want = "worse"
		case "goodput_rps":
			t.Errorf("goodput_rps judged on a closed loop, where it repeats jobs_per_s")
		}
		if got := fields[len(fields)-1]; got != want {
			t.Errorf("%s: %s, want %s", fields[1], got, want)
		}
		if pairs := fields[len(fields)-2]; !strings.HasSuffix(pairs, "/10") {
			t.Errorf("%s: %s pairs, want 10 (the traced file skipped)", fields[1], pairs)
		}
	}
}
