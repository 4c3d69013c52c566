package compile

import (
	"fastsc/internal/circuit"
	"fastsc/internal/faultpoint"
	"fastsc/internal/graph"
	"fastsc/internal/mapping"
	"fastsc/internal/smt"
	"fastsc/internal/topology"
	"fastsc/internal/xtalk"
)

// smtResult stores a Solve outcome including its error: infeasibility
// verdicts are as expensive to rediscover as solutions (the color-budget
// probe walks k upward until the first failure), so they are cached too.
type smtResult struct {
	xs    []float64
	delta float64
	err   error
}

// SolveSMT is a memoizing smt.Solve: identical (k, cfg) pairs — which recur
// across slices, strategies and jobs on the same device — are solved once,
// including under concurrency (misses go through the cache's single-flight
// layer; the solve outcome embeds its error, so infeasibility verdicts are
// cached and deduplicated like solutions). The returned slice is shared;
// callers must not mutate it.
func (c *Context) SolveSMT(k int, cfg smt.Config) ([]float64, float64, error) {
	cache := c.cache()
	if cache == nil {
		c.record(RegionSMT, false)
		return smt.Solve(k, cfg)
	}
	v, tier, _ := cache.DoTiered(RegionSMT, SMTKey(k, cfg), func() (any, error) {
		faultpoint.Sleep(faultpoint.SolveSlow)
		xs, delta, err := smt.Solve(k, cfg)
		return smtResult{xs: xs, delta: delta, err: err}, nil
	})
	c.recordTier(RegionSMT, tier)
	r := v.(smtResult)
	return r.xs, r.delta, r.err
}

// Xtalk is a memoizing xtalk.Build: the distance-d crosstalk graph of a
// device is built once — single-flighted under concurrent misses — and
// shared read-only by every job. Building it is quadratic in couplers
// (all-pairs distances), so sharing it across a batch matters on large
// chips.
func (c *Context) Xtalk(dev *topology.Device, distance int) *xtalk.Graph {
	cache := c.cache()
	if cache == nil {
		c.record(RegionXtalk, false)
		return xtalk.Build(dev, distance)
	}
	v, tier, _ := cache.DoTiered(RegionXtalk, XtalkKey(dev, distance), func() (any, error) {
		return xtalk.Build(dev, distance), nil
	})
	c.recordTier(RegionXtalk, tier)
	return v.(*xtalk.Graph)
}

// Analysis is a memoizing circuit.Analyze: the analyzed-circuit IR (CSR
// per-qubit gate streams, flat ASAP layers, criticality, content
// signature) is computed once per circuit content signature and shared
// read-only by every strategy compiling that circuit — in a Fig 9–13
// sweep, the 5–7 strategies of a batch all consume the same analysis
// instead of re-deriving the dependency structure per compile. Without a
// cache the analysis is computed directly (the gate list is still hashed
// once — Analysis.Sig is part of the IR — but no key is built).
func (c *Context) Analysis(circ *circuit.Circuit) *circuit.Analysis {
	cache := c.cache()
	if cache == nil {
		c.record(RegionCircuit, false)
		return circuit.Analyze(circ)
	}
	// The key (CircuitKey) is the 128-bit content signature plus the exact
	// qubit and gate counts — the cheap dimensions are encoded exactly
	// (the same discipline as SliceKey), so a hypothetical digest
	// collision between differently-shaped circuits can never alias. The
	// signature computed here is reused on the miss path, so a miss hashes
	// the gate list once.
	sig := circ.Signature()
	v, tier, _ := cache.DoTiered(RegionCircuit, CircuitKey(circ, sig), func() (any, error) {
		return circuit.AnalyzeWithSignature(circ, sig), nil
	})
	c.recordTier(RegionCircuit, tier)
	return v.(*circuit.Analysis)
}

// Route is the memoizing layout/routing stage: the routed circuit of
// (circuit, device, mapping options) is computed once per process and
// shared read-only by every strategy compiling that circuit — a 5-strategy
// batch routes each (circuit, placement, router) exactly once instead of
// five times. Routing is deterministic, so sharing cannot change output.
// The route region is process-local (recomputing a route is cheaper than
// decoding one from a snapshot) and size-aware through
// mapping.Result.ApproxSize. Routers that read the dependency analysis
// (lookahead, degree placement) draw it from the circ region, so route and
// schedule share one Analysis per circuit signature.
func (c *Context) Route(circ *circuit.Circuit, dev *topology.Device, opts mapping.Options) (*mapping.Result, error) {
	opts = opts.WithDefaults()
	cache := c.cache()
	if cache == nil {
		c.record(RegionRoute, false)
		var ana *circuit.Analysis
		if opts.NeedsAnalysis() {
			ana = c.Analysis(circ)
		}
		return mapping.Plan(circ, ana, dev, opts)
	}
	key := RouteKey(circ, DeviceSignature(dev), opts)
	v, tier, err := cache.DoTiered(RegionRoute, key, func() (any, error) {
		var ana *circuit.Analysis
		if opts.NeedsAnalysis() {
			ana = c.Analysis(circ)
		}
		return mapping.Plan(circ, ana, dev, opts)
	})
	c.recordTier(RegionRoute, tier)
	if err != nil {
		return nil, err
	}
	return v.(*mapping.Result), nil
}

// SliceSolution is a cached per-slice solver outcome: the coloring of the
// active interaction subgraph, the vertices deferred by the color budget,
// and the occupancy-ordered color→frequency assignment. All fields are
// shared read-only between jobs.
type SliceSolution struct {
	// Coloring assigns each crosstalk-graph vertex of the active subgraph
	// its color, densely indexed by vertex id (Uncolored outside the
	// colored set).
	Coloring graph.Coloring
	// Deferred lists, in ascending order, the vertices that did not fit
	// the color budget and must be postponed to a later slice.
	Deferred []int
	// NumColors is the number of colors used (0 for an empty subgraph).
	NumColors int
	// Assign holds each color's interaction frequency (GHz), indexed by
	// color.
	Assign []float64
	// Delta is the frequency separation achieved by the solver.
	Delta float64
}

// Slice returns the memoized solution for one active-subgraph key,
// computing it on a miss. Compute must be a pure function of the key.
func (c *Context) Slice(key string, compute func() (SliceSolution, error)) (SliceSolution, error) {
	cache := c.cache()
	if cache == nil {
		c.record(RegionSlice, false)
		return compute()
	}
	v, tier, err := cache.DoTiered(RegionSlice, key, func() (any, error) {
		return compute()
	})
	c.recordTier(RegionSlice, tier)
	if err != nil {
		return SliceSolution{}, err
	}
	return v.(SliceSolution), nil
}

// Parking returns the memoized parking-frequency assignment for a system
// (keyed by its signature), computing it on a miss. The returned slice is
// indexed by qubit id and shared read-only.
func (c *Context) Parking(sysSig string, compute func() ([]float64, error)) ([]float64, error) {
	cache := c.cache()
	if cache == nil {
		c.record(RegionParking, false)
		return compute()
	}
	v, tier, err := cache.DoTiered(RegionParking, sysSig, func() (any, error) {
		return compute()
	})
	c.recordTier(RegionParking, tier)
	if err != nil {
		return nil, err
	}
	return v.([]float64), nil
}

// Static returns the memoized program-independent palette (the Baseline
// S/G calibration table) for a key, computing it on a miss. The cached
// value is opaque to this package; schedule stores its own table type and
// treats it as immutable.
func (c *Context) Static(key string, compute func() (any, error)) (any, error) {
	cache := c.cache()
	if cache == nil {
		c.record(RegionStatic, false)
		return compute()
	}
	v, tier, err := cache.DoTiered(RegionStatic, key, func() (any, error) {
		return compute()
	})
	c.recordTier(RegionStatic, tier)
	return v, err
}
