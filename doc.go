// Package fastsc is a Go reproduction of "Systematic Crosstalk Mitigation
// for Superconducting Qubits via Frequency-Aware Compilation" (Ding et al.,
// MICRO 2020): the ColorDynamic frequency-aware compiler, its four baseline
// strategies, the transmon-physics substrate, NISQ benchmark generators, a
// noisy state-vector simulator, and a harness regenerating every table and
// figure of the paper's evaluation.
//
// The library lives under internal/; see internal/core for the compilation
// entry point, cmd/fastsc for the CLI, cmd/fastscd for the compile daemon,
// cmd/experiments for the paper harness, and bench_test.go for the
// per-figure benchmarks. docs/architecture.md maps the layers, the cache
// regions and their key schemas; docs/api.md documents the daemon's HTTP
// API.
//
// # Batch compilation
//
// internal/compile is the throughput layer: a batch engine that fans
// (circuit, compiler, system) jobs across a bounded worker pool and a
// concurrency-safe sharded LRU cache that memoizes the solver stages — SMT
// frequency solutions keyed by (k, band, anharmonicity), crosstalk graphs
// and static palettes keyed by the device's content signature, and
// per-slice coloring/frequency assignments keyed by the exact sorted
// vertex set of the active interaction subgraph (collision-proof by
// construction: a cache hit is always the right frequency assignment). A
// compile.Context carries both and is injected into every
// schedule.Compiler; core.BatchCompile streams results over a channel, and
// the experiment harness (internal/expt) runs the full Fig 9–13 sweeps
// through it.
//
// The cache deduplicates concurrent misses on the same key through a
// single-flight group (one solve per key no matter how many workers need
// it), shards its lock across a power of two of independent LRU lists so
// large worker pools do not serialize, weighs entries by approximate byte
// size when evicting (a crosstalk graph pays for the slice entries it
// displaces), and snapshots its solver results to disk (versioned gob;
// see compile.Cache.Save/Load). Both CLIs expose the
// snapshot as -cache-file, so repeated sweeps start warm; a missing,
// corrupt or version-mismatched snapshot silently degrades to a cold
// cache.
//
// # Parallelism
//
// Compilation is parallel at one level: across the jobs of a batch. Each
// job compiles on one goroutine, so one deep circuit compiles serially
// whatever its worker budget. On a slice cache miss ColorDynamic colors
// the whole active subgraph and runs one serial SMT solve. Splitting
// slices into components on spare workers, and speculating the SMT
// bisection, were measured and removed: the component keys hit too
// rarely to pay for their lookups and merge, even on one worker. The
// "Parallelism" section of docs/architecture.md has the numbers.
//
// # Compilation as a service
//
// cmd/fastscd serves the same pipeline as a long-running HTTP daemon
// (internal/server): batches of QASM or native-format circuits compile
// against a named device and stream back as NDJSON result lines, with
// async submit/poll, admission control (bounded queue plus a per-request
// worker budget instead of one global pool), request-scoped cache
// accounting in every response, a Prometheus /metrics endpoint over the
// cache-region counters, and graceful drain on SIGTERM that persists a
// snapshot to warm the next start. docs/api.md is the wire contract;
// docs/architecture.md shows where the daemon sits in the layer map.
//
// # Flat graph core
//
// internal/graph stores graphs as sorted per-vertex neighbor slices over
// dense non-negative vertex ids (adjacency-slice/CSR style) rather than
// nested maps: neighbor iteration is O(deg) over contiguous int32s
// (Graph.Adj), HasEdge is a binary search, BFS runs over flat distance
// arrays, AllPairsDistances returns a flat n×n matrix, and colorings are
// []int32 indexed by vertex with -1 for uncolored (graph.Coloring). The
// representation is immutable-by-convention once built and every
// iteration order is sorted ascending, so compilation output is
// deterministic and cache keys can consume vertex sets as sorted slices
// natively (compile.SliceKey skips its defensive copy for sorted input).
// Graph.EdgeID gives each edge the dense id of its position in the sorted
// Edges() enumeration — the coupler numbering shared by xtalk.Graph, the
// static palettes and the tiling patterns — via a lazily built, mutation-
// invalidated index, so edge→index lookups are map-free too.
//
// internal/xtalk builds the distance-d crosstalk graph by bounded BFS from
// each coupler's endpoints — O(couplers · reach(d)) instead of the old
// all-pairs O(couplers²) probe — and internal/schedule compiles slices
// against buffers each compile allocates once and reuses from slice to
// slice, so the cold (cache-miss) path allocates per slice only what the
// finished Schedule retains.
//
// # Dense device model
//
// phys.System stores its per-coupler bare couplings as a flat []float64
// indexed by the dense coupler id of Device.Coupling.EdgeID (the coupler's
// position in Device.Edges()), not as an edge-keyed map. System.G0(a, b)
// resolves the id by binary search over a neighbor slice and panics on
// uncoupled pairs (an uncoupled pair reaching a coupling lookup is a
// compiler bug); System.G0ByID serves hot loops that already hold a
// coupler id — noise channels iterating couplers in id order, crosstalk
// weights, static palettes — with a direct index. The compile hot path
// performs zero map probes per gate. compile.SystemSignature hashes the
// dense slice in coupler-id order, which preserves the signatures the old
// map-based iteration produced.
//
// # Layout and routing
//
// internal/mapping is the pluggable layout/routing subsystem. A
// mapping.Router translates a logical circuit onto a device's physical
// qubits through SWAP insertion: GreedyRouter (the default) walks each
// uncoupled gate's operands together along the lexicographically smallest
// shortest path — resolved against the device graph's cached, lazily
// built DistanceMatrix (graph.Graph.Distances) instead of a per-gate BFS
// — and LookaheadRouter runs a SABRE-style swap search scoring candidate
// SWAPs over the blocked dependency frontier plus a decaying extended
// window of upcoming gates (window and decay configurable), which roughly
// halves the SWAP count on random-interaction workloads like QAOA.
// Initial placements are pluggable too: identity, snake (boustrophedon
// chains) and degree (high-interaction logical qubits, per the Analysis
// interaction counts, seated on high-degree physical qubits). Both
// routers are deterministic, so routed results are shareable: the compile
// cache's route region memoizes one immutable mapping.Result per
// (circuit signature, device signature, placement, router config) —
// process-local like circ, size-aware via ApproxSize — and
// core.CompileCtx routes through it, so the 5–7 strategies of a batch
// route each circuit once. Both CLIs expose -router and -placement; the
// ext-routers experiment tabulates the greedy/lookahead comparison.
//
// # Analyzed-circuit IR
//
// circuit.Analyze computes the analyzed-circuit IR once per circuit: CSR
// per-qubit gate streams (one flat []int32 plus offsets instead of a
// ragged [][]int), the ASAP layers and depth in the same flat layer-offset
// form, per-gate criticality, and a content signature (Circuit.Signature)
// over qubit count and every gate's kind/operands/angle. An Analysis is
// immutable after construction and shared read-only; the compile cache's
// circ region memoizes one per signature, so every strategy of a batch
// sweep consumes the same analysis instead of re-deriving the dependency
// structure per compile (the circ region, like xtalk, is process-local and
// never persisted — an analysis rebuilds in microseconds). The queueing
// frontier (circuit.Frontier) is a cheap resettable view over the shared
// CSR: each compile allocates its cursor state once, and Ready() fills a
// reusable buffer with no map and no per-call allocation — the returned
// slice is valid until the next Ready call.
//
// # Static enforcement
//
// The invariants above — deterministic output, exact cache keys,
// zero-alloc hot loops, threaded contexts — are enforced at vet time by
// fastscvet (cmd/fastscvet, analyzers in internal/lint), the repo's own
// go/analysis-style suite run by `make lint` and CI through go vet
// -vettool. The "Invariants & enforcement" section of
// docs/architecture.md maps each invariant to its analyzer and to the
// runtime test that backstops it.
package fastsc
