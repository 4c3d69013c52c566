// Command fastscbench is the repository's benchmark: four workloads that
// each time a user-visible path of the compiler end to end, check every
// output, and (traced) split the time across the modules the path calls.
//
//	fastscbench -seed 1                      every workload, each in its own process
//	fastscbench -workload sweep-warm -seed 1 -seconds 30 -trace 0
//	fastscbench -workload deep-100q -trace 1 -spans spans.json
//	fastscbench -compare parent/*.json change/*.json
//
// A single-workload run prints "<workload> <metric> <value> <unit>" lines
// and, as its last line, one JSON object with the keys correct, attempted,
// failed and metrics: the end-to-end metrics untraced, the per-layer
// metrics traced. See README.md for the workloads, the metrics and how to
// compare two commits.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"
)

// benchWorkers is the compile worker count of every Context the benchmark
// creates.
const benchWorkers = 2

// workloads lists the workloads in the order they run and print.
var workloads = []struct{ name, why string }{
	{"sweep-warm", "Fig 9 sweep on one Context restored from a snapshot: ~99.5% cache hits, so the evaluator dominates"},
	{"sweep-cold", "Fig 9 sweep on a fresh Context per op: cache writes, single-flight and every solver run beside the evaluator"},
	{"deep-100q", "one 6000-gate 100-qubit ColorDynamic compile per op: the only workload with intra-circuit parallelism"},
	{"daemon-mix", "synthetic open-loop 40 req/s against the lightly loaded in-process daemon: HTTP, JSON and QASM parsing on a long-lived cache"},
}

// config is one workload run's settings.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	// spans is the file a traced run writes its spans to.
	spans string
	// dir holds the run's temporary files (snapshots).
	dir string
	// setupReps is how many times setup runs; setup_s is their median.
	setupReps int
	// maxOps, when positive, caps the ops of each measured stretch (tests).
	maxOps int
}

// report is what a workload run measured.
type report struct {
	m         map[string]float64
	notes     []string
	fails     failLog
	attempted int
}

// failLog counts failed ops and keeps the first few reasons.
type failLog struct {
	mu   sync.Mutex
	n    int
	msgs []string
}

func (l *failLog) add(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.n++
	if len(l.msgs) < 5 {
		l.msgs = append(l.msgs, fmt.Sprintf(format, args...))
	}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fastscbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "run this workload in this process (default: every workload, each in a child process)")
		seed     = fs.Int64("seed", 1, "workload seed: job order, circuits and request sequence")
		seconds  = fs.Int("seconds", 30, "measured seconds per workload")
		trace    = fs.Int("trace", 0, "1 = traced run: per-layer metrics and a spans file instead of the end-to-end metrics")
		spans    = fs.String("spans", "", "spans file of a traced run (default .bench_build/fastscbench/spans-<workload>.json)")
		compare  = fs.Bool("compare", false, "compare mode: the arguments are result files of two commits, one directory per commit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		return runCompare(fs.Args(), stdout, stderr)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "fastscbench: want -seconds >= 1, -trace 0 or 1, and no arguments")
		return 2
	}
	cfg := config{
		workload: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, spans: *spans, setupReps: 9,
	}
	if cfg.workload == "" {
		return runAll(cfg, stdout, stderr)
	}
	return runOne(cfg, stdout, stderr)
}

// runOne runs one workload in this process and prints its result.
func runOne(cfg config, stdout, stderr io.Writer) int {
	base := filepath.Join(".bench_build", "fastscbench")
	if err := os.MkdirAll(base, 0o755); err != nil {
		fmt.Fprintln(stderr, "fastscbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(base, cfg.workload+"-")
	if err != nil {
		fmt.Fprintln(stderr, "fastscbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	cfg.dir = dir
	if cfg.spans == "" {
		cfg.spans = filepath.Join(base, "spans-"+cfg.workload+".json")
	}
	trace := 0
	if cfg.trace {
		trace = 1
	}
	fmt.Fprintf(stdout, "fastscbench workload=%s seed=%d seconds=%d trace=%d gomaxprocs=%d workers=%d\n",
		cfg.workload, cfg.seed, int(cfg.seconds/time.Second), trace, runtime.GOMAXPROCS(0), benchWorkers)
	res, rep, err := measure(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "fastscbench:", err)
		return 1
	}
	for _, msg := range rep.fails.msgs {
		fmt.Fprintf(stderr, "fastscbench: %s: failed %s\n", cfg.workload, msg)
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	for _, d := range defs {
		fmt.Fprintf(stdout, "%s %s %.6g %s\n", cfg.workload, d.name, res.Metrics[d.name].Value, d.unit)
	}
	fmt.Fprintf(stdout, "%s error_rate %.6g fraction (%d of %d ops failed)\n",
		cfg.workload, ratio(float64(res.Failed), float64(res.Attempted)), res.Failed, res.Attempted)
	for _, n := range rep.notes {
		fmt.Fprintln(stdout, n)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "fastscbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// measure sets a workload up and runs it.
func measure(cfg config) (result, *report, error) {
	rep := &report{m: make(map[string]float64)}
	var err error
	switch cfg.workload {
	case "sweep-warm", "sweep-cold", "deep-100q":
		err = measureClosedWorkload(cfg, rep)
	case "daemon-mix":
		err = measureDaemon(cfg, rep)
	default:
		err = fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, workloadNames())
	}
	if err != nil {
		return result{}, nil, err
	}
	rep.m["peak_rss_mb"] = peakRSSMiB()
	res := result{Attempted: rep.attempted, Failed: rep.fails.n}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	if err := res.fill(defs, rep.m); err != nil {
		return result{}, nil, err
	}
	return res, rep, nil
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// timedSetup runs setup reps times and returns the last state and the
// median set-up time in seconds; earlier states are discarded. An
// untraced run later scales the time to the reference host's speed by the
// median probe of its measured stretch, not by probes taken here (see
// probe.go): probes next to a set-up read up to four times their usual
// time, because the garbage collector is still clearing what the set-up
// left.
func timedSetup[T any](reps int, setup func() (T, error), discard func(T)) (T, float64, error) {
	var (
		st    T
		times []float64
	)
	for r := range max(reps, 1) {
		if r > 0 {
			discard(st)
		}
		start := time.Now()
		var err error
		if st, err = setup(); err != nil {
			return st, 0, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	return st, percentile(times, 0.5), nil
}

func measureClosedWorkload(cfg config, rep *report) error {
	setup := func() (*closedLoop, error) {
		switch cfg.workload {
		case "sweep-warm":
			return setupSweep(cfg, true)
		case "sweep-cold":
			return setupSweep(cfg, false)
		}
		return setupDeep(cfg)
	}
	w, setupS, err := timedSetup(cfg.setupReps, setup, func(*closedLoop) {})
	if err != nil {
		return fmt.Errorf("%s setup: %w", cfg.workload, err)
	}
	rep.m["setup_s"] = setupS
	rep.attempted, err = measureClosed(w, cfg, rep)
	return err
}

// finishTrace writes a traced run's spans file.
func finishTrace(t *tracer, cfg config, rep *report) error {
	if err := t.writeSpans(cfg.spans, cfg.workload, cfg.seed); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	rep.notes = append(rep.notes, fmt.Sprintf("%s spans: %d written to %s", cfg.workload, len(t.all), cfg.spans))
	return nil
}

// runAll runs every workload, each in a child process of this binary, and
// passes their output through. It fails if any workload fails.
func runAll(cfg config, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "fastscbench:", err)
		return 1
	}
	trace := 0
	if cfg.trace {
		trace = 1
	}
	code := 0
	for _, w := range workloads {
		args := []string{"-workload", w.name, "-seed", fmt.Sprint(cfg.seed),
			"-seconds", fmt.Sprint(int(cfg.seconds / time.Second)), "-trace", fmt.Sprint(trace)}
		if cfg.spans != "" {
			args = append(args, "-spans", strings.TrimSuffix(cfg.spans, ".json")+"-"+w.name+".json")
		}
		var buf bytes.Buffer
		cmd := exec.Command(self, args...)
		cmd.Stdout = &buf
		cmd.Stderr = stderr
		runErr := cmd.Run()
		sc := bufio.NewScanner(bytes.NewReader(buf.Bytes()))
		for sc.Scan() {
			if !strings.HasPrefix(sc.Text(), "{") {
				fmt.Fprintln(stdout, sc.Text())
			}
		}
		if runErr != nil {
			var exit *exec.ExitError
			if !errors.As(runErr, &exit) {
				fmt.Fprintln(stderr, "fastscbench:", runErr)
			}
			fmt.Fprintf(stderr, "fastscbench: workload %s failed\n", w.name)
			code = 1
		}
	}
	return code
}
