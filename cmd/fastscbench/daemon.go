package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fastsc/internal/bench"
	"fastsc/internal/circuit"
	"fastsc/internal/compile"
	"fastsc/internal/core"
	"fastsc/internal/phys"
	"fastsc/internal/qasm"
	"fastsc/internal/server"
	"fastsc/internal/topology"
)

// daemon-mix traffic is synthetic: an open loop at a fixed rate, each
// request one circuit under every strategy, mostly from a small pool the
// daemon's cache holds and partly fresh. At 40 req/s the daemon is busy
// about 15% of the time (a request takes 2 to 4 ms), so requests do not
// queue at admission: the workload measures a lightly loaded daemon's
// per-request latency, not its behaviour under overload.
const (
	daemonRate     = 40 // requests per second
	daemonInterval = time.Second / daemonRate
	latencyLimit   = 50 * time.Millisecond
	daemonConns    = 2
	requestTimeout = 10 * time.Second
	// probeLead is how long before a request's due time its gap's probe
	// starts: several probe times, so the probe ends before the request is
	// due.
	probeLead = 8 * time.Millisecond
	// daemonProbeReach is how many requests on each side of a request,
	// beyond the ones next to it, its scaling probes reach: half a second.
	daemonProbeReach = daemonRate / 2
	// xebCycles is fixed, the middle of Fig 10's 5/10/15, so that the seed
	// draws instances of equal cost instead of changing the mix's cost.
	xebCycles = 10
	// Every block of freshBlock requests holds exactly freshPerBlock fresh
	// circuits (15%), at positions the seed shuffles, and fresh circuits
	// cycle through every kind and size in an order the seed shuffles: the
	// seed draws instances, not how much of the traffic is fresh or heavy.
	freshBlock    = 20
	freshPerBlock = 3
	// poolInstances is the number of pool circuits of each kind and size.
	// With more of them the pool's mean cost depends less on which
	// instances the seed draws.
	poolInstances = 4
)

var (
	itemKinds = []string{"qaoa", "qgan", "bv", "xeb"}
	itemSizes = []int{9, 16}
)

// item is one circuit a request compiles under every strategy.
type item struct {
	n int
	// src is the QASM source sent, "" for a native circuit.
	src string
	// circ is the circuit the daemon decodes from the request.
	circ *circuit.Circuit
	body []byte
	// ref holds pool circuits' results per strategy from core.CompileCtx
	// (through core.BatchCollect) in set-up; nil for fresh circuits.
	ref []*jobResult
}

// makeItem builds one request: QAOA, QGAN and BV go as QASM, XEB as a
// native gate list, on a grid of n qubits. QAOA instances have the expected
// edge count of their random graph, n(n−1)/4 edges of two CNOTs each, and
// BV instances a secret of (n−1)/2 bits.
func makeItem(kind string, n int, seed int64) (*item, error) {
	it := &item{n: n}
	req := server.CompileRequest{Device: server.DeviceSpec{Topology: "grid", Qubits: n}}
	var (
		c   *circuit.Circuit
		err error
	)
	switch kind {
	case "qaoa":
		c, err = typical(n*(n-1)/2, seed, func(s int64) *circuit.Circuit { return bench.QAOA(n, s) })
	case "qgan":
		c = bench.QGAN(n, 0, seed)
	case "bv":
		c, err = typical((n-1)/2, seed, func(s int64) *circuit.Circuit { return bench.BV(n, s) })
	default:
		dev, err := topology.FromSpec("grid", n)
		if err != nil {
			return nil, err
		}
		c = bench.XEB(dev, xebCycles, seed)
	}
	if err != nil {
		return nil, fmt.Errorf("%s on %d qubits: %w", kind, n, err)
	}
	var spec *server.CircuitSpec
	if kind == "xeb" {
		spec = &server.CircuitSpec{Qubits: c.NumQubits}
		for _, g := range c.Gates {
			spec.Gates = append(spec.Gates, server.GateSpec{Op: g.Kind.String(), Qubits: g.Qubits, Theta: g.Theta})
		}
		it.circ = c
	} else {
		src, err := qasm.Write(c)
		if err != nil {
			return nil, err
		}
		parsed, err := qasm.Parse(src)
		if err != nil {
			return nil, err
		}
		it.src, it.circ = src, parsed.Circuit
	}
	for _, s := range core.Strategies() {
		req.Jobs = append(req.Jobs, server.JobSpec{ID: s, Strategy: s, QASM: it.src, Circuit: spec})
	}
	it.body, err = json.Marshal(req)
	return it, err
}

// typical redraws gen's instance until it has want two-qubit gates. QAOA's
// edge count and BV's secret weight vary with the seed, and the compile
// time with them (a 16-qubit BV request took 1.1 to 8.6 ms over 12 seeds),
// so without this the seed would choose how heavy the traffic is, not
// just which instances it holds.
func typical(want int, seed int64, gen func(int64) *circuit.Circuit) (*circuit.Circuit, error) {
	rng := rand.New(rand.NewSource(seed))
	for range 10000 {
		c := gen(rng.Int63())
		n := 0
		for _, g := range c.Gates {
			if len(g.Qubits) == 2 {
				n++
			}
		}
		if n == want {
			return c, nil
		}
	}
	return nil, fmt.Errorf("no instance with %d two-qubit gates in 10000 draws", want)
}

// requestGen draws the request sequence: fresh circuits where the current
// block puts them, else a uniformly drawn pool circuit.
type requestGen struct {
	rng  *rand.Rand
	pool []*item
	// block holds the rest of the current block, true where a fresh
	// circuit goes; shapes holds the rest of the current kind × size cycle.
	block  []bool
	shapes []int
}

func (g *requestGen) next() (*item, error) {
	if len(g.block) == 0 {
		g.block = make([]bool, freshBlock)
		for i := range freshPerBlock {
			g.block[i] = true
		}
		g.rng.Shuffle(freshBlock, func(i, j int) { g.block[i], g.block[j] = g.block[j], g.block[i] })
	}
	fresh := g.block[0]
	g.block = g.block[1:]
	if !fresh {
		return g.pool[g.rng.Intn(len(g.pool))], nil
	}
	if len(g.shapes) == 0 {
		g.shapes = g.rng.Perm(len(itemKinds) * len(itemSizes))
	}
	shape := g.shapes[0]
	g.shapes = g.shapes[1:]
	return makeItem(itemKinds[shape/len(itemSizes)], itemSizes[shape%len(itemSizes)], g.rng.Int63())
}

// daemonRun is a prepared daemon-mix workload: an in-process daemon with
// its defaults on a loopback listener, a client of at most daemonConns
// connections, and the request sequence of the open-loop stretch.
type daemonRun struct {
	systems map[int]*phys.System
	gen     *requestGen
	reqs    []*item
	srv     *server.Server
	hs      *http.Server
	served  chan error
	client  *http.Client
	url     string
}

// jobs returns the item's compile jobs, as the daemon builds them from the
// request, over circ.
func (d *daemonRun) jobs(it *item, circ func() (*circuit.Circuit, error)) ([]core.BatchJob, error) {
	var jobs []core.BatchJob
	for _, s := range core.Strategies() {
		c, err := circ()
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, core.BatchJob{Key: s, Circuit: c, System: d.systems[it.n], Strategy: s})
	}
	return jobs, nil
}

// setupDaemon draws the pool (4 kinds × 2 sizes × poolInstances) and
// its reference results, draws nReqs requests, starts the daemon and sends
// every pool circuit once.
func setupDaemon(cfg config, nReqs int) (*daemonRun, error) {
	d := &daemonRun{systems: make(map[int]*phys.System)}
	for _, n := range itemSizes {
		dev, err := topology.FromSpec("grid", n)
		if err != nil {
			return nil, err
		}
		d.systems[n] = phys.NewSystem(dev, phys.DefaultParams(), server.DefaultDeviceSeed)
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	var pool []*item
	for _, kind := range itemKinds {
		for _, n := range itemSizes {
			for range poolInstances {
				it, err := makeItem(kind, n, rng.Int63())
				if err != nil {
					return nil, err
				}
				jobs, err := d.jobs(it, func() (*circuit.Circuit, error) { return it.circ, nil })
				if err != nil {
					return nil, err
				}
				if it.ref, err = untracedBatch(compile.NewContext(benchWorkers), jobs); err != nil {
					return nil, fmt.Errorf("pool reference: %w", err)
				}
				pool = append(pool, it)
			}
		}
	}
	d.gen = &requestGen{rng: rng, pool: pool}
	for range nReqs {
		it, err := d.gen.next()
		if err != nil {
			return nil, err
		}
		d.reqs = append(d.reqs, it)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d.srv = server.New(server.Config{})
	d.hs = &http.Server{Handler: d.srv.Handler(), ReadHeaderTimeout: requestTimeout}
	d.served = make(chan error, 1)
	go func() { d.served <- d.hs.Serve(ln) }()
	d.url = "http://" + ln.Addr().String()
	d.client = &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: daemonConns, MaxIdleConnsPerHost: daemonConns},
		Timeout:   requestTimeout,
	}
	for _, it := range pool {
		if o := d.send(it, time.Now()); o.err != nil {
			d.close()
			return nil, fmt.Errorf("warm-up request: %w", o.err)
		}
	}
	return d, nil
}

// close stops the daemon and waits for its server goroutine.
func (d *daemonRun) close() {
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	_ = d.hs.Shutdown(ctx) // a timeout leaves nothing to clean up: the process exits next
	<-d.served
	_ = d.srv.Shutdown(ctx)
	d.client.CloseIdleConnections()
}

// streamLine is one NDJSON line of a /v1/compile reply: a result, an
// error or the closing done line.
type streamLine struct {
	Type          string               `json:"type"`
	Strategy      string               `json:"strategy"`
	Error         string               `json:"error"`
	Result        *server.ResultDetail `json:"result"`
	Jobs          int                  `json:"jobs"`
	Failed        int                  `json:"failed"`
	ElapsedMicros int64                `json:"elapsed_us"`
}

// outcome is one request as the client saw it.
type outcome struct {
	latMs     float64 // due time to done line
	elapsedMs float64 // the done line's elapsed_us
	swaps     int
	slices    int
	err       error
}

// send posts one request and reads its reply to the done line. The
// latency runs from due; the output check runs after the done line.
func (d *daemonRun) send(it *item, due time.Time) outcome {
	resp, err := d.client.Post(d.url+"/v1/compile", "application/json", bytes.NewReader(it.body))
	if err != nil {
		return outcome{latMs: msSince(due), err: err}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return outcome{latMs: msSince(due), err: fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(msg))}
	}
	var (
		results []streamLine
		done    *streamLine
		doneAt  time.Time
	)
	dec := json.NewDecoder(resp.Body)
	for {
		var l streamLine
		if err := dec.Decode(&l); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return outcome{latMs: msSince(due), err: fmt.Errorf("reply: %w", err)}
		}
		if l.Type == "done" {
			doneAt, done = time.Now(), &l
			continue
		}
		results = append(results, l)
	}
	if done == nil {
		return outcome{latMs: msSince(due), err: errors.New("reply has no done line")}
	}
	o := outcome{latMs: float64(doneAt.Sub(due)) / 1e6, elapsedMs: float64(done.ElapsedMicros) / 1e3}
	o.err = checkReply(it, results, done, &o)
	return o
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }

// checkReply checks a reply: one result line per strategy and no failures;
// pool circuits give the set-up results bit for bit, fresh circuits a
// success in [0, 1].
func checkReply(it *item, results []streamLine, done *streamLine, o *outcome) error {
	strategies := core.Strategies()
	if done.Failed != 0 || done.Jobs != len(strategies) || len(results) != len(strategies) {
		return fmt.Errorf("reply has %d result lines, done line says %d jobs, %d failed", len(results), done.Jobs, done.Failed)
	}
	for _, l := range results {
		if l.Type != "result" || l.Result == nil {
			return fmt.Errorf("%s: %s line: %s", l.Strategy, l.Type, l.Error)
		}
		r := l.Result
		o.swaps += r.SwapCount
		o.slices += r.Depth
		if it.ref == nil {
			if !(r.Success >= 0 && r.Success <= 1) {
				return fmt.Errorf("%s: fresh circuit success %v outside [0, 1]", l.Strategy, r.Success)
			}
			continue
		}
		i := slices.Index(strategies, l.Strategy)
		if i < 0 {
			return fmt.Errorf("unknown strategy %q in reply", l.Strategy)
		}
		want := it.ref[i]
		if math.Float64bits(r.Success) != math.Float64bits(want.success) || r.Depth != want.slices || r.SwapCount != want.swaps {
			return fmt.Errorf("%s: success %v, %d slices, %d swaps; core.CompileCtx gave %v, %d, %d",
				l.Strategy, r.Success, r.Depth, r.SwapCount, want.success, want.slices, want.swaps)
		}
	}
	return nil
}

// openLoop sends reqs[i] at start + i·daemonInterval whatever the replies
// do, over at most daemonConns connections, and returns every outcome, the
// generator's worst lateness and the time from the first send to the last
// reply. With probe set it also returns probes (see probe.go): one before
// the first request, and one probeLead before each later request whose
// gap finds no request in flight, so a probe never shares the cores with
// the daemon.
func (d *daemonRun) openLoop(reqs []*item, probe bool) (outs []outcome, probes []probeSample, lateMax, window time.Duration) {
	n := len(reqs)
	outs = make([]outcome, n)
	due := make([]time.Time, n)
	queue := make(chan int, n) // room for every request, so the generator never blocks
	var (
		wg       sync.WaitGroup
		inFlight atomic.Int32
	)
	for range daemonConns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				outs[i] = d.send(reqs[i], due[i])
				inFlight.Add(-1)
			}
		}()
	}
	if probe {
		probes = append(probes, probeSample{0, probeMs()})
	}
	start := time.Now()
	for i := range n {
		due[i] = start.Add(time.Duration(i) * daemonInterval)
		if probe && i > 0 {
			time.Sleep(time.Until(due[i].Add(-probeLead)))
			if inFlight.Load() == 0 {
				probes = append(probes, probeSample{i, probeMs()})
			}
		}
		time.Sleep(time.Until(due[i]))
		lateMax = max(lateMax, time.Since(due[i]))
		inFlight.Add(1)
		queue <- i
	}
	close(queue)
	wg.Wait()
	return outs, probes, lateMax, time.Since(start)
}

// openLoopStats summarises an open-loop stretch.
type openLoopStats struct {
	latMs, elapsedMs, wireMs []float64
	ok, good                 int
	swaps, slices            int
}

func summarise(outs []outcome, log *failLog) openLoopStats {
	var s openLoopStats
	for i, o := range outs {
		s.latMs = append(s.latMs, o.latMs)
		if o.err != nil {
			log.add("request %d: %v", i, o.err)
			continue
		}
		s.ok++
		if o.latMs <= float64(latencyLimit)/1e6 {
			s.good++
		}
		s.elapsedMs = append(s.elapsedMs, o.elapsedMs)
		s.wireMs = append(s.wireMs, o.latMs-o.elapsedMs)
		s.swaps += o.swaps
		s.slices += o.slices
	}
	return s
}

// measureDaemon runs daemon-mix. Untraced, the open loop runs for
// cfg.seconds. Traced, it runs for half of that (the server, wire, cache
// and allocation metrics come from it), then the same traffic continues
// as a closed-loop in-process replay on the daemon's own cache, traced
// through the same public calls as the other workloads.
func measureDaemon(cfg config, rep *report) error {
	window := cfg.seconds
	if cfg.trace {
		window /= 2
	}
	nReqs := max(int(window/daemonInterval), 1)
	if cfg.maxOps > 0 {
		nReqs = min(nReqs, cfg.maxOps)
	}
	d, setupS, err := timedSetup(cfg.setupReps, func() (*daemonRun, error) { return setupDaemon(cfg, nReqs) }, (*daemonRun).close)
	if err != nil {
		return fmt.Errorf("daemon-mix setup: %w", err)
	}
	defer d.close()
	m := rep.m
	m["setup_s"] = setupS

	before, err := d.scrape()
	if err != nil {
		return err
	}
	m0 := readMem()
	outs, probes, lateMax, win := d.openLoop(d.reqs, !cfg.trace)
	m1 := readMem()
	after, err := d.scrape()
	if err != nil {
		return err
	}
	s := summarise(outs, &rep.fails)
	rep.attempted = len(outs)
	lateMs := float64(lateMax) / 1e6
	rep.notes = append(rep.notes, fmt.Sprintf("daemon-mix requests %d, bench.gen_late_ms_max %.3f ms", len(outs), lateMs))
	if lateMax > 5*time.Millisecond {
		rep.notes = append(rep.notes, "daemon-mix WARNING: the generator ran more than 5 ms late; this run's latencies include the stall")
	}
	if !cfg.trace {
		scaled := scaleToRef(s.latMs, probes, daemonProbeReach)
		m["op_ms_p50"] = percentile(scaled, 0.50)
		m["op_ms_p95"] = percentile(scaled, 0.95)
		m["jobs_per_s"] = float64(len(core.Strategies())*s.ok) / win.Seconds()
		m["goodput_rps"] = float64(s.good) / win.Seconds()
		rep.notes = append(rep.notes, fmt.Sprintf("daemon-mix raw setup_s %.4f s, raw op_ms_p50 %.4f ms, raw op_ms_p95 %.4f ms, probes %d, probe_ms_p50 %.4f ms",
			m["setup_s"], percentile(s.latMs, 0.50), percentile(s.latMs, 0.95), len(probes), probeMedian(probes)))
		m["setup_s"] *= probeRefMs / probeMedian(probes)
		return nil
	}

	jobs := len(core.Strategies()) * s.ok
	allocMetrics(m, m0, m1, jobs)
	cacheMetrics(m, metricsCache(before, after), len(outs))
	m["mapping.swaps_per_op"] = ratio(float64(s.swaps), float64(s.ok))
	m["schedule.slices_per_op"] = ratio(float64(s.slices), float64(s.ok))
	m["server.wire_share"] = ratio(sum(s.wireMs), sum(s.latMs))

	t := newTracer()
	replayed, err := d.replayLoop(t, window, cfg.maxOps, &rep.fails)
	if err != nil {
		return err
	}
	rep.attempted += replayed
	ls := t.split()
	spanMetrics(m, ls)
	// Shares of the request as the client sees it: the replay's layer
	// times per request over the open loop's mean request latency.
	latMean := mean(s.latMs)
	perReq := func(ns float64) float64 { return ratio(ns/1e6, float64(ls.ops)) }
	m["noise.evaluate_share"] = ratio(perReq(ls.self[layerNoise]), latMean)
	m["qasm.parse_share"] = ratio(perReq(ls.self[layerQASM]), latMean)
	m["bench.trace_overhead_pct"] = 100 * (ratio(perReq(ls.wall-ls.self[layerQASM]), mean(s.elapsedMs)) - 1)
	if err := snapshotMetrics(m, d.srv.Cache(), cfg.dir); err != nil {
		return err
	}
	rep.notes = append(rep.notes,
		fmt.Sprintf("daemon-mix server.batch_ms_p50 %.4f ms", percentile(s.elapsedMs, 0.5)),
		fmt.Sprintf("daemon-mix server.wire_ms_p50 %.4f ms", percentile(s.wireMs, 0.5)),
		fmt.Sprintf("daemon-mix qasm.parse_us_per_job %.3f us", ratio(ls.dur[layerQASM]/1e3, float64(ls.count[layerQASM]))))
	rep.notes = append(rep.notes, selfTable(cfg.workload, ls)...)
	return finishTrace(t, cfg, rep)
}

// replayLoop continues the request sequence in process for d: each
// request's QASM is parsed once per job (as the daemon does) and its jobs
// run traced on a request-scoped Context over the daemon's cache. Results
// are checked against core.CompileCtx's. It returns the number of requests
// replayed.
func (d *daemonRun) replayLoop(t *tracer, dur time.Duration, maxOps int, log *failLog) (int, error) {
	base := &compile.Context{Cache: d.srv.Cache()}
	start := time.Now()
	op := int32(0)
	for ; op == 0 || (time.Since(start) < dur && (maxOps <= 0 || int(op) < maxOps)); op++ {
		it, err := d.gen.next()
		if err != nil {
			return int(op), err
		}
		s := t.set(op)
		root := s.open(0, layerBench)
		jobs, err := d.jobs(it, func() (*circuit.Circuit, error) {
			if it.src == "" {
				return it.circ, nil
			}
			p := s.open(s.id(root), layerQASM)
			defer s.close(p)
			parsed, err := qasm.Parse(it.src)
			if err != nil {
				return nil, err
			}
			return parsed.Circuit, nil
		})
		var rs []*jobResult
		if err == nil {
			rs, err = tracedBatch(t, op, s.id(root), base.Scoped(benchWorkers), jobs)
		}
		s.close(root)
		s.flush()
		if err == nil {
			ref := it.ref
			if ref == nil {
				ref, err = untracedBatch(base.Scoped(benchWorkers), jobs)
			}
			for i := 0; err == nil && i < len(rs); i++ {
				err = sameResult(ref[i], rs[i])
			}
		}
		if err != nil {
			log.add("replayed request %d: %v", op, err)
		}
	}
	return int(op), nil
}

// scrape reads the daemon's /metrics into series name → value.
func (d *daemonRun) scrape() (map[string]float64, error) {
	resp, err := d.client.Get(d.url + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

// metricsCache returns the per-region cache counters between two scrapes.
func metricsCache(before, after map[string]float64) map[string]compile.Stats {
	delta := func(series, region string) uint64 {
		k := fmt.Sprintf("%s{region=%q}", series, region)
		return uint64(after[k] - before[k])
	}
	out := make(map[string]compile.Stats)
	for _, r := range regions {
		out[r] = compile.Stats{
			Hits:     delta("fastscd_cache_hits_total", r),
			WarmHits: delta("fastscd_cache_warm_hits_total", r),
			Misses:   delta("fastscd_cache_misses_total", r),
		}
	}
	return out
}
