// Package server implements fastscd's compilation service: an HTTP+JSON
// front end over the batch engine, sharing one process-wide
// compile.Context so every request warms the same sharded single-flight
// cache.
//
// # Endpoints
//
// The API (reference: docs/api.md) is mounted by Handler:
//
//	POST /v1/compile        compile a batch, streaming NDJSON results
//	POST /v1/batches        submit a batch asynchronously (202 + poll URL)
//	GET  /v1/batches/{id}   poll an async batch
//	GET  /v1/meta           accepted strategies/topologies/placements/routers
//	GET  /metrics           Prometheus text metrics (cache region counters)
//	GET  /healthz           liveness: 200 "ok"
//	GET  /readyz            readiness: 200 "ready", or 503 "draining"
//
// # Admission control
//
// Instead of the CLI's single global worker pool, the server bounds work
// in two dimensions. Config.MaxConcurrent batches may compile at once;
// up to Config.MaxQueue more wait for a slot, which goes to the highest
// priority first and FIFO within a priority class. A submission that
// finds the queue full sheds an expired or lower-priority waiter, or is
// itself rejected immediately with 429 — backpressure is visible to
// clients instead of silently queueing without bound. Each admitted
// batch then runs on its own worker budget (Config.Workers, optionally
// lowered per request), so one wide batch cannot monopolize the process.
// Requests are fully parsed and validated *before* admission: a malformed
// request never consumes a slot.
//
// # Request-scoped cache stats
//
// Every batch runs on a Context derived with compile.Context.Scoped: the
// cache is shared, but hit/miss accounting lands in a per-request
// compile.Recorder that is reported in the stream's terminal "done" line.
// A miss is counted only when this request's compute function actually
// ran — a lookup that joined another request's in-flight computation is a
// hit — so summing misses across concurrent identical requests measures
// real work, which the single-flight tests rely on.
//
// # Drain contract
//
// Drain flips the server into draining mode: new submissions (streaming
// or async) get 503 and readyz reports draining, while every batch
// already admitted — including batches still waiting for a compile
// slot — runs to completion, and read-only endpoints stay available so
// clients can collect results. Shutdown drains and then waits for the
// in-flight batches (bounded by its context). On a clean Shutdown the
// caller persists the cache with Cache().Save; the next boot calls
// LoadSnapshot before it serves, which exports the restored-entry count as
// fastscd_snapshot_restored_entries.
package server
