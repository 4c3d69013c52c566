// Package compile is the batch-compilation engine of FastSC-Go: a bounded
// worker pool that fans (circuit, compiler, system) jobs across CPUs and a
// concurrency-safe LRU cache that memoizes the expensive inner stages of
// the ColorDynamic pipeline across jobs.
//
// Two observations make the cache effective (cf. Murali et al., ASPLOS
// 2020; the per-slice solver work of Ding et al., MICRO 2020 dominates
// compilation cost):
//
//   - SMT frequency solutions depend only on (k, band, anharmonicity) — a
//     pure function of the device signature — so every strategy and every
//     benchmark compiled against the same chip shares them.
//   - Per-slice coloring/frequency assignments depend only on the active
//     interaction subgraph of the crosstalk graph, and real workloads
//     (brickwork entanglers, XEB tilings, Trotter layers) re-issue the same
//     few subgraphs over and over.
//
// A Context bundles the cache with a parallelism budget and is injected
// into schedule.Compiler.Compile. The zero value is valid: no cache,
// default workers; every lookup computes. A nil *Context is not. All
// cached values are treated as immutable after insertion — callers must
// never mutate what they get back.
//
// # Cache v2: sharding, single-flight, persistence
//
// The cache is sharded: keys hash onto a power of two of independently
// locked LRU shards (one per GOMAXPROCS by default, NewCacheSharded to
// override), so a >32-core worker pool does not serialize on one mutex.
// LRU order and the capacity bound hold per shard.
//
// Cache.Do deduplicates concurrent misses on the same key through a
// single-flight group: exactly one caller computes, every concurrent
// caller for that key blocks and shares the result (errors included;
// errors are still never cached). A slice subgraph issued by 32 jobs at
// once is solved once, not 32 times.
//
// The solver-result regions (SMT solves, static palettes, parking
// assignments, slice solutions — see PersistRegions) snapshot to disk via
// Cache.Save/Load as a versioned gob stream; both CLIs and fastscd expose
// it as -cache-file, so repeated sweeps start warm. Crosstalk graphs,
// routed circuits and circuit analyses stay process-local: they rebuild
// about as fast as they would decode. A missing, corrupt or other-version
// snapshot degrades to a cold cache rather than an error (LoadSnapshot
// reports the reason), and SnapshotVersion covers the key schemes too, so
// keys from another scheme can never satisfy a current lookup. Cache keys
// are exact encodings (not hashes) of their inputs wherever collision
// would change compilation output: SliceKey encodes the full sorted
// active-vertex set.
// See docs/architecture.md, "Snapshots & degradation".
package compile

import "runtime"

// Context carries the shared compilation state injected into every
// compiler: the memoization cache and the parallelism budget for batch
// runs. The zero value is valid: no cache, default workers; every lookup
// computes. A nil *Context is not.
type Context struct {
	// Cache memoizes SMT solutions, crosstalk graphs, static palettes and
	// per-slice coloring solutions. Nil disables memoization.
	Cache *Cache
	// Workers bounds the batch engine's worker pool. <= 0 selects
	// runtime.GOMAXPROCS(0).
	Workers int
	// Record, when non-nil, attributes every memoized lookup made through
	// this Context to a request-scoped Recorder in addition to the cache's
	// global counters. Use Scoped to derive a per-request Context from a
	// process-wide one.
	Record *Recorder
}

// NewContext returns a Context with the given parallelism budget and a
// fresh default-capacity cache. workers <= 0 selects GOMAXPROCS.
func NewContext(workers int) *Context {
	return &Context{Cache: NewCache(0), Workers: workers}
}

// workers resolves the effective worker count.
func (c *Context) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Stats reports the cache counters, or nil when no cache is attached.
func (c *Context) Stats() map[string]Stats {
	if c.Cache == nil {
		return nil
	}
	return c.Cache.StatsByRegion()
}
