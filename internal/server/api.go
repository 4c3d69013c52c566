package server

import (
	"fmt"
	"math"
	"slices"
	"time"

	"fastsc/internal/circuit"
	"fastsc/internal/compile"
	"fastsc/internal/core"
	"fastsc/internal/mapping"
	"fastsc/internal/phys"
	"fastsc/internal/qasm"
	"fastsc/internal/schedule"
	"fastsc/internal/topology"
)

// CompileRequest is the body of POST /v1/compile and POST /v1/batches: a
// named device, shared compilation options, and one job per (circuit,
// strategy) pair. Circuits arrive either as OpenQASM 2.0 source or in the
// native gate-list form; exactly one of the two must be set per job.
type CompileRequest struct {
	Device  DeviceSpec  `json:"device"`
	Options OptionsSpec `json:"options"`
	Jobs    []JobSpec   `json:"jobs"`
	// Workers caps this request's worker budget below the server's
	// per-request default; 0 keeps the default.
	Workers int `json:"workers,omitempty"`
	// Verbose includes per-slice frequency detail in every result.
	Verbose bool `json:"verbose,omitempty"`
	// DeadlineMS is the batch's deadline in milliseconds from arrival; 0
	// means none. Work not started by the deadline is abandoned with a
	// typed not-started error instead of occupying a compile slot, and an
	// expired batch waiting in the admission queue is shed first.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// Priority orders admission: 0 (lowest) to 9; omitted selects
	// DefaultPriority. When the queue is full, an arriving batch may shed
	// a queued batch of strictly lower priority; equal priorities are FIFO
	// and running batches are never preempted.
	Priority *int `json:"priority,omitempty"`
}

// DeviceSpec names the target chip: a topology spec (see
// topology.FromSpec), its qubit count, and the fabrication seed that fixes
// the simulated calibration draw (defaults to 42, the CLIs' default).
type DeviceSpec struct {
	Topology string `json:"topology"`
	Qubits   int    `json:"qubits"`
	Seed     *int64 `json:"seed,omitempty"`
}

// OptionsSpec tunes the shared compilation pipeline; the zero value is the
// paper's defaults (identity placement, greedy router, 2 colors, d = 2).
type OptionsSpec struct {
	Placement string  `json:"placement,omitempty"`
	Router    string  `json:"router,omitempty"`
	Window    int     `json:"window,omitempty"`
	Decay     float64 `json:"decay,omitempty"`
	MaxColors int     `json:"max_colors,omitempty"`
	Distance  int     `json:"distance,omitempty"`
	Residual  float64 `json:"residual,omitempty"`
}

// JobSpec is one compilation job: a circuit (QASM or native) under one
// Table I strategy (default ColorDynamic). IDs default to "job-<index>"
// and identify results within the batch.
type JobSpec struct {
	ID       string       `json:"id,omitempty"`
	Strategy string       `json:"strategy,omitempty"`
	QASM     string       `json:"qasm,omitempty"`
	Circuit  *CircuitSpec `json:"circuit,omitempty"`
}

// CircuitSpec is the native circuit wire form: a qubit count and an
// ordered gate list.
type CircuitSpec struct {
	Qubits int        `json:"qubits"`
	Gates  []GateSpec `json:"gates"`
}

// GateSpec is one gate: the lowercase mnemonic of circuit.Kind ("h", "cz",
// "rx", ...), its operand qubits, and the angle for rotation gates.
type GateSpec struct {
	Op     string  `json:"op"`
	Qubits []int   `json:"qubits"`
	Theta  float64 `json:"theta,omitempty"`
}

// ResultLine is one NDJSON line of a result stream (type "result" or
// "error"); poll responses carry the same shape in their results array.
type ResultLine struct {
	Type     string        `json:"type"`
	ID       string        `json:"id"`
	Index    int           `json:"index"`
	Strategy string        `json:"strategy"`
	Error    string        `json:"error,omitempty"`
	Result   *ResultDetail `json:"result,omitempty"`
}

// ResultDetail is the compiled-schedule summary of one successful job —
// the fields cmd/fastsc prints, in wire form.
type ResultDetail struct {
	Success          float64       `json:"success"`
	CrosstalkError   float64       `json:"crosstalk_error"`
	DecoherenceError float64       `json:"decoherence_error"`
	IntrinsicError   float64       `json:"intrinsic_error"`
	Depth            int           `json:"depth"`
	CompiledDepth    int           `json:"compiled_depth"`
	TotalNs          float64       `json:"total_ns"`
	MaxColorsUsed    int           `json:"max_colors_used"`
	SwapCount        int           `json:"swap_count"`
	CompileMicros    int64         `json:"compile_us"`
	Slices           []SliceDetail `json:"slices,omitempty"`
}

// SliceDetail is one schedule slice (Verbose requests only).
type SliceDetail struct {
	StartNs    float64      `json:"start_ns"`
	DurationNs float64      `json:"duration_ns"`
	Colors     int          `json:"colors"`
	Gates      []GateDetail `json:"gates"`
}

// GateDetail is one scheduled gate; Freq is the interaction frequency of
// two-qubit gates (GHz), omitted for single-qubit gates.
type GateDetail struct {
	Gate string  `json:"gate"`
	Freq float64 `json:"freq_ghz,omitempty"`
}

// DoneLine terminates every result stream: job totals plus the
// request-scoped cache report.
type DoneLine struct {
	Type          string       `json:"type"` // "done"
	Batch         string       `json:"batch,omitempty"`
	Jobs          int          `json:"jobs"`
	Failed        int          `json:"failed"`
	ElapsedMicros int64        `json:"elapsed_us"`
	Cache         *CacheReport `json:"cache"`
}

// CacheReport is the request-scoped cache accounting of one batch: totals,
// the derived hit rate, and the per-region split. Misses count computes
// this request actually performed — a lookup served by another request's
// in-flight computation records a hit (see compile.Recorder).
type CacheReport struct {
	Hits    uint64                 `json:"hits"`
	Misses  uint64                 `json:"misses"`
	HitRate float64                `json:"hit_rate"`
	Regions map[string]RegionStats `json:"regions"`
}

// RegionStats is one cache region's request-scoped counters.
type RegionStats struct {
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
}

// SubmitResponse acknowledges an async POST /v1/batches submission.
type SubmitResponse struct {
	Batch  string `json:"batch"`
	Status string `json:"status"`
	Jobs   int    `json:"jobs"`
	URL    string `json:"url"`
}

// BatchStatus is the poll response of GET /v1/batches/{id}. Status is
// "queued" or "running" while live; terminal states are "done", "expired"
// (deadline passed), "shed" (evicted for higher-priority work), "canceled"
// (submission aborted), and "interrupted" (the daemon restarted while the
// batch was in flight; its results are whatever had been persisted).
type BatchStatus struct {
	Batch         string       `json:"batch"`
	Status        string       `json:"status"`
	Jobs          int          `json:"jobs"`
	Completed     int          `json:"completed"`
	Failed        int          `json:"failed"`
	Results       []ResultLine `json:"results"`
	Cache         *CacheReport `json:"cache,omitempty"`
	ElapsedMicros int64        `json:"elapsed_us,omitempty"`
}

// ErrorResponse is the JSON body of every non-2xx API response.
type ErrorResponse struct {
	Error string `json:"error"`
}

// MetaResponse enumerates the vocabulary the API accepts.
type MetaResponse struct {
	Strategies []string `json:"strategies"`
	Topologies []string `json:"topologies"`
	Placements []string `json:"placements"`
	Routers    []string `json:"routers"`
}

// DefaultDeviceSeed seeds the simulated fabrication draw when a request
// omits device.seed, matching the CLIs' -device-seed default.
const DefaultDeviceSeed = 42

// DefaultPriority is the admission priority of a request that omits
// "priority" — the middle of the 0..9 range, so callers can go both up
// and down from the default.
const DefaultPriority = 5

// MaxPriority is the highest admission priority.
const MaxPriority = 9

// MaxDeviceQubits bounds device.qubits. The device is built before any
// job runs, and what jobs derive from it grows with its size (the routing
// distance matrix quadratically), so an unchecked size would let a few
// request bytes allocate without limit.
const MaxDeviceQubits = 1024

// maxDeadlineMS is the largest deadline_ms whose time.Duration does not
// overflow int64 nanoseconds (about 292 years); a larger one would wrap
// into the past and expire every job before it starts.
const maxDeadlineMS = math.MaxInt64 / int64(time.Millisecond)

// apiError is an error with an HTTP status; retryAfter, when non-zero,
// becomes a Retry-After header (seconds).
type apiError struct {
	status     int
	msg        string
	retryAfter int
}

func (e *apiError) Error() string { return e.msg }

func badRequest(format string, args ...any) *apiError {
	return &apiError{status: 400, msg: fmt.Sprintf(format, args...)}
}

// parsedBatch is a validated CompileRequest, ready for the batch engine.
type parsedBatch struct {
	jobs    []core.BatchJob
	ids     []string
	sys     *phys.System
	verbose bool
	workers int
	// prio is the admission priority (0..9, DefaultPriority when omitted).
	prio int
	// deadlineAt is the absolute batch deadline, fixed at parse time from
	// deadline_ms; zero means none.
	deadlineAt time.Time
}

// parseRequest validates a CompileRequest and resolves it against the
// server's system cache. All validation happens here, before admission, so
// a malformed request is rejected with a 400 without consuming a compile
// slot.
func (s *Server) parseRequest(req *CompileRequest) (*parsedBatch, *apiError) {
	if len(req.Jobs) == 0 {
		return nil, badRequest("request has no jobs")
	}
	if max := s.cfg.MaxJobs; len(req.Jobs) > max {
		return nil, badRequest("request has %d jobs, limit is %d", len(req.Jobs), max)
	}
	if req.DeadlineMS < 0 || req.DeadlineMS > maxDeadlineMS {
		return nil, badRequest("deadline_ms must be in [0, %d], got %d", maxDeadlineMS, req.DeadlineMS)
	}
	prio := DefaultPriority
	if req.Priority != nil {
		prio = *req.Priority
		if prio < 0 || prio > MaxPriority {
			return nil, badRequest("priority must be in [0, %d], got %d", MaxPriority, prio)
		}
	}
	seed := int64(DefaultDeviceSeed)
	if req.Device.Seed != nil {
		seed = *req.Device.Seed
	}
	if n := req.Device.Qubits; n > MaxDeviceQubits {
		return nil, badRequest("device: %d qubits, limit is %d", n, MaxDeviceQubits)
	}
	sys, err := s.systems.get(req.Device.Topology, req.Device.Qubits, seed)
	if err != nil {
		return nil, badRequest("device: %v", err)
	}
	cfg, aerr := buildConfig(req.Options)
	if aerr != nil {
		return nil, aerr
	}
	pb := &parsedBatch{
		sys:     sys,
		verbose: req.Verbose,
		workers: req.Workers,
		prio:    prio,
		jobs:    make([]core.BatchJob, 0, len(req.Jobs)),
		ids:     make([]string, 0, len(req.Jobs)),
	}
	if req.DeadlineMS > 0 {
		pb.deadlineAt = time.Now().Add(time.Duration(req.DeadlineMS) * time.Millisecond)
	}
	for i, js := range req.Jobs {
		id := js.ID
		if id == "" {
			id = fmt.Sprintf("job-%d", i)
		}
		strat := js.Strategy
		if strat == "" {
			strat = core.ColorDynamic
		}
		if schedule.ByName(strat) == nil {
			return nil, badRequest("job %q: unknown strategy %q (want one of %v)", id, strat, core.Strategies())
		}
		circ, aerr := buildJobCircuit(js)
		if aerr != nil {
			return nil, &apiError{status: aerr.status, msg: fmt.Sprintf("job %q: %s", id, aerr.msg)}
		}
		if circ.NumQubits > sys.Device.Qubits {
			return nil, badRequest("job %q: circuit has %d qubits but device has %d", id, circ.NumQubits, sys.Device.Qubits)
		}
		pb.ids = append(pb.ids, id)
		pb.jobs = append(pb.jobs, core.BatchJob{
			Key:      id,
			Circuit:  circ,
			System:   sys,
			Strategy: strat,
			Config:   cfg,
		})
	}
	return pb, nil
}

// buildConfig translates the wire options into a core.Config, validating
// the placement and router names.
func buildConfig(o OptionsSpec) (core.Config, *apiError) {
	rc := mapping.RouterConfig{Algorithm: o.Router, Window: o.Window, Decay: o.Decay}
	if _, err := mapping.NewRouter(rc); err != nil {
		return core.Config{}, badRequest("options: %v", err)
	}
	if o.Placement != "" && !slices.Contains(mapping.PlacementNames(), o.Placement) {
		return core.Config{}, badRequest("options: unknown placement %q (want one of %v)", o.Placement, mapping.PlacementNames())
	}
	return core.Config{
		Placement: core.Placement(o.Placement),
		Router:    rc,
		Schedule: schedule.Options{
			MaxColors:     o.MaxColors,
			XtalkDistance: o.Distance,
			Residual:      o.Residual,
		},
	}, nil
}

// buildJobCircuit decodes one job's circuit from whichever form it uses.
func buildJobCircuit(js JobSpec) (*circuit.Circuit, *apiError) {
	switch {
	case js.QASM != "" && js.Circuit != nil:
		return nil, badRequest("both qasm and circuit set; want exactly one")
	case js.QASM != "":
		parsed, err := qasm.Parse(js.QASM)
		if err != nil {
			return nil, badRequest("%v", err)
		}
		return parsed.Circuit, nil
	case js.Circuit != nil:
		return buildNativeCircuit(js.Circuit)
	}
	return nil, badRequest("neither qasm nor circuit set; want exactly one")
}

// buildNativeCircuit validates and assembles a native gate list. It
// re-implements circuit.Add's operand checks with error returns, because
// the library constructor panics on invalid input and this input is
// untrusted.
func buildNativeCircuit(cs *CircuitSpec) (*circuit.Circuit, *apiError) {
	if cs.Qubits <= 0 {
		return nil, badRequest("circuit: invalid qubit count %d", cs.Qubits)
	}
	if len(cs.Gates) == 0 {
		return nil, badRequest("circuit: no gates")
	}
	circ := circuit.New(cs.Qubits)
	for i, gs := range cs.Gates {
		kind, ok := circuit.KindByName(gs.Op)
		if !ok {
			return nil, badRequest("circuit: gate %d: unknown op %q", i, gs.Op)
		}
		want := 1
		if kind.IsTwoQubit() {
			want = 2
		}
		if len(gs.Qubits) != want {
			return nil, badRequest("circuit: gate %d (%s): want %d qubits, got %d", i, gs.Op, want, len(gs.Qubits))
		}
		for _, q := range gs.Qubits {
			if q < 0 || q >= cs.Qubits {
				return nil, badRequest("circuit: gate %d (%s): qubit %d out of range [0,%d)", i, gs.Op, q, cs.Qubits)
			}
		}
		if want == 2 && gs.Qubits[0] == gs.Qubits[1] {
			return nil, badRequest("circuit: gate %d (%s): two-qubit gate on a single qubit %d", i, gs.Op, gs.Qubits[0])
		}
		circ.Add(circuit.Gate{Kind: kind, Qubits: gs.Qubits, Theta: gs.Theta})
	}
	return circ, nil
}

// toResultLine converts one engine result to its wire form.
func toResultLine(r core.BatchResult, id string, verbose bool) ResultLine {
	line := ResultLine{ID: id, Index: r.Index, Strategy: r.Strategy}
	if r.Err != nil {
		line.Type = "error"
		line.Error = r.Err.Error()
		return line
	}
	line.Type = "result"
	line.Result = toResultDetail(r.Result, verbose)
	return line
}

func toResultDetail(res *core.Result, verbose bool) *ResultDetail {
	rep := res.Report
	d := &ResultDetail{
		Success:          rep.Success,
		CrosstalkError:   rep.CrosstalkError,
		DecoherenceError: rep.DecoherenceError,
		IntrinsicError:   rep.IntrinsicError,
		Depth:            res.Schedule.Depth(),
		CompiledDepth:    res.Schedule.CompiledDepth,
		TotalNs:          res.Schedule.TotalTime,
		MaxColorsUsed:    res.Schedule.MaxColorsUsed,
		SwapCount:        res.SwapCount,
		CompileMicros:    res.CompileTime.Microseconds(),
	}
	if verbose {
		for _, sl := range res.Schedule.Slices {
			sd := SliceDetail{
				StartNs:    sl.Start,
				DurationNs: sl.Duration,
				Colors:     sl.Colors,
				Gates:      make([]GateDetail, 0, len(sl.Gates)),
			}
			for _, ev := range sl.Gates {
				gd := GateDetail{Gate: ev.Gate.String()}
				if ev.Gate.Kind.IsTwoQubit() {
					gd.Freq = ev.Freq
				}
				sd.Gates = append(sd.Gates, gd)
			}
			d.Slices = append(d.Slices, sd)
		}
	}
	return d
}

// toCacheReport converts a request-scoped Recorder into its wire form.
func toCacheReport(rec *compile.Recorder) *CacheReport {
	regions := rec.StatsByRegion()
	total := rec.Total()
	rep := &CacheReport{
		Hits:    total.Hits,
		Misses:  total.Misses,
		HitRate: total.HitRate(),
		Regions: make(map[string]RegionStats, len(regions)),
	}
	for name, st := range regions {
		rep.Regions[name] = RegionStats{Hits: st.Hits, Misses: st.Misses}
	}
	return rep
}

// meta builds the vocabulary listing of GET /v1/meta.
func meta() MetaResponse {
	return MetaResponse{
		Strategies: core.Strategies(),
		Topologies: topology.SpecNames(),
		Placements: mapping.PlacementNames(),
		Routers:    mapping.RouterNames(),
	}
}
