package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
)

// benchmarkFile is the part of BENCHMARK.json this program reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// readBenchmarkFile reads BENCHMARK.json from the working directory or the
// nearest parent that has one.
func readBenchmarkFile() (*benchmarkFile, error) {
	dir, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if err == nil {
			var bf benchmarkFile
			if err := json.Unmarshal(data, &bf); err != nil {
				return nil, fmt.Errorf("BENCHMARK.json: %w", err)
			}
			return &bf, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return nil, errors.New("no BENCHMARK.json in the working directory or its parents")
		}
		dir = parent
	}
}

// runFile is one run's output file.
type runFile struct {
	path     string
	workload string
	seed     int64
	trace    bool
	res      result
}

// readRunFile reads a run's saved standard output: the header line names
// the workload and seed, the last line is the result.
func readRunFile(path string) (*runFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rf := &runFile{path: path}
	var last string
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		last = line
		if rest, ok := strings.CutPrefix(line, "fastscbench "); ok && rf.workload == "" {
			for _, f := range strings.Fields(rest) {
				k, v, _ := strings.Cut(f, "=")
				switch k {
				case "workload":
					rf.workload = v
				case "seed":
					rf.seed, _ = strconv.ParseInt(v, 10, 64)
				case "trace":
					rf.trace = v == "1"
				}
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if rf.workload == "" {
		return nil, fmt.Errorf("%s: not the output of a fastscbench run", path)
	}
	if err := json.Unmarshal([]byte(last), &rf.res); err != nil {
		return nil, fmt.Errorf("%s: last line: %w", path, err)
	}
	return rf, nil
}

// runCompare compares the untraced runs of two commits, one directory each
// (the first directory named is the parent), metric by metric and workload
// by workload, and exits 1 if any metric got worse than its bound. Traced
// runs' files are skipped.
func runCompare(paths []string, stdout, stderr io.Writer) int {
	bf, err := readBenchmarkFile()
	if err != nil {
		fmt.Fprintln(stderr, "fastscbench:", err)
		return 2
	}
	var dirs []string
	sides := map[string]map[string][]*runFile{} // dir → workload → runs
	for _, p := range paths {
		rf, err := readRunFile(p)
		if err != nil {
			fmt.Fprintln(stderr, "fastscbench:", err)
			return 2
		}
		if rf.trace {
			continue
		}
		dir := filepath.Dir(p)
		if sides[dir] == nil {
			dirs = append(dirs, dir)
			sides[dir] = map[string][]*runFile{}
		}
		sides[dir][rf.workload] = append(sides[dir][rf.workload], rf)
	}
	if len(dirs) != 2 {
		fmt.Fprintf(stderr, "fastscbench: -compare wants the result files of two directories (parent first), got %d\n", len(dirs))
		return 2
	}
	parent, change := sides[dirs[0]], sides[dirs[1]]
	fmt.Fprintf(stdout, "parent %s, change %s\n", dirs[0], dirs[1])
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tparent q1\tmedian\tq3\tchange q1\tmedian\tq3\tchange\twins\tverdict\t")
	worse := false
	for _, w := range bf.Workloads {
		pr, cr := sortRuns(parent[w.Name]), sortRuns(change[w.Name])
		if len(pr) == 0 || len(cr) == 0 {
			continue
		}
		for _, e := range bf.EndToEnd {
			// On the closed loops goodput_rps is jobs_per_s over the fixed
			// jobs per op: judging both would count one effect twice.
			if e.Name == "goodput_rps" && w.Name != "daemon-mix" {
				continue
			}
			pv, cv := values(pr, e.Name), values(cr, e.Name)
			if len(pv) != len(pr) || len(cv) != len(cr) {
				continue
			}
			v := judge(pv, cv, e.Better == "higher", e.Bound)
			worse = worse || v.verdict == "worse"
			fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.4g\t%.4g\t%.4g\t%.4g\t%.4g\t%+.1f%%\t%d/%d\t%s\t\n",
				w.Name, e.Name, v.p[0], v.p[1], v.p[2], v.c[0], v.c[1], v.c[2],
				100*ratio(v.c[1]-v.p[1], v.p[1]), v.wins, v.pairs, v.verdict)
		}
	}
	if err := tw.Flush(); err != nil {
		fmt.Fprintln(stderr, "fastscbench:", err)
		return 2
	}
	if worse {
		return 1
	}
	return 0
}

// sortRuns orders runs by seed, then file name, so the i-th runs of the
// two sides pair up.
func sortRuns(rs []*runFile) []*runFile {
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].seed != rs[j].seed {
			return rs[i].seed < rs[j].seed
		}
		return rs[i].path < rs[j].path
	})
	return rs
}

func values(rs []*runFile, metric string) []float64 {
	var out []float64
	for _, r := range rs {
		if v, ok := r.res.Metrics[metric]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

// judgement is one metric's comparison on one workload.
type judgement struct {
	p, c        [3]float64 // quartiles
	wins, pairs int
	verdict     string
}

// judge applies the benchmark's rule: "worse" when the change's median is
// worse than the parent's by more than bound (a share of the parent's
// median); "better" when at least ten pairs ran, the change wins at least
// 9 in 10 of them (ties count for neither) and the medians differ by more
// than the parent's interquartile range; "unresolved" when the parent's own spread is wider
// than the bound, unless every change run beats every parent run;
// otherwise "unchanged".
func judge(parent, change []float64, higher bool, bound float64) judgement {
	var j judgement
	j.p[0], j.p[1], j.p[2] = quartiles(parent)
	j.c[0], j.c[1], j.c[2] = quartiles(change)
	better := func(c, p float64) bool {
		if higher {
			return c > p
		}
		return c < p
	}
	j.pairs = min(len(parent), len(change))
	for i := range j.pairs {
		if better(change[i], parent[i]) {
			j.wins++
		}
	}
	pm, cm, iqr := j.p[1], j.c[1], j.p[2]-j.p[0]
	worseBy := ratio(cm-pm, pm)
	if higher {
		worseBy = -worseBy
	}
	allBetter := true
	for _, c := range change {
		for _, p := range parent {
			allBetter = allBetter && better(c, p)
		}
	}
	switch {
	case worseBy > bound:
		j.verdict = "worse"
	case better(cm, pm) && j.pairs >= 10 && 10*j.wins >= 9*j.pairs && math.Abs(cm-pm) > iqr:
		j.verdict = "better"
	case ratio(iqr, math.Abs(pm)) > bound && !allBetter:
		j.verdict = "unresolved"
	default:
		j.verdict = "unchanged"
	}
	return j
}
