package core

import (
	"context"
	"fmt"

	"fastsc/internal/circuit"
	"fastsc/internal/compile"
	"fastsc/internal/phys"
)

// BatchJob is one (circuit, compiler, system) triple for the batch engine.
type BatchJob struct {
	// Key identifies the job in its BatchResult; keys should be unique
	// within a batch (BatchCollect maps results by key).
	Key string
	// Circuit is the logical circuit to route and schedule.
	Circuit *circuit.Circuit
	// System is the characterized target chip.
	System *phys.System
	// Strategy is the Table I strategy name (see Strategies).
	Strategy string
	// Config tunes the compilation as in Compile.
	Config Config
}

// BatchResult is one finished batch job, streamed in completion order.
type BatchResult struct {
	// Index is the job's position in the submitted slice.
	Index int
	// Key echoes BatchJob.Key.
	Key string
	// Strategy echoes BatchJob.Strategy.
	Strategy string
	// Result is the compilation output when Err is nil.
	Result *Result
	// Err is the compilation error.
	Err error
}

// BatchCompile fans jobs across ctx's worker pool (the zero Context:
// GOMAXPROCS workers, no cache) and streams results over the returned
// channel as they complete. All jobs share ctx's cache, so recurring device-level solver
// work (SMT solutions, crosstalk graphs, static palettes) and recurring
// slice subgraphs are computed once across the whole batch — including
// when many workers miss on the same key simultaneously: the cache's
// single-flight layer blocks the duplicates on the one computation.
// Warm-starting the batch from a previous process's snapshot
// (compile.Cache.Load / the CLIs' -cache-file flag) removes even the
// first computation of each recurring entry.
func BatchCompile(ctx *compile.Context, jobs []BatchJob) <-chan BatchResult {
	return BatchCompileCtx(context.Background(), ctx, jobs)
}

// BatchCompileCtx is BatchCompile under a cancellation context: when stdctx
// is canceled, in-flight compilations run to completion (partial schedules
// are never streamed) and jobs not yet started are reported with Err
// wrapping the cancellation cause. The compile server uses this to abort
// the remainder of a batch when its client disconnects and to drain
// gracefully on shutdown.
func BatchCompileCtx(stdctx context.Context, ctx *compile.Context, jobs []BatchJob) <-chan BatchResult {
	ejobs := make([]compile.Job, len(jobs))
	for i, j := range jobs {
		job := j
		ejobs[i] = compile.Job{
			Key: job.Key,
			Run: func(c *compile.Context) (any, error) {
				return CompileCtx(c, job.Circuit, job.System, job.Strategy, job.Config)
			},
		}
	}
	out := make(chan BatchResult, len(jobs))
	go func() {
		defer close(out)
		for o := range ctx.RunBatchCtx(stdctx, ejobs) {
			br := BatchResult{
				Index:    o.Index,
				Key:      o.Key,
				Strategy: jobs[o.Index].Strategy,
				Err:      o.Err,
			}
			if o.Err == nil {
				br.Result = o.Value.(*Result)
			}
			out <- br
		}
	}()
	return out
}

// BatchCollect runs jobs to completion and returns the results keyed by
// job key, or the first error (in submission order) if any job failed.
func BatchCollect(ctx *compile.Context, jobs []BatchJob) (map[string]*Result, error) {
	results := make([]BatchResult, len(jobs))
	for r := range BatchCompile(ctx, jobs) {
		results[r.Index] = r
	}
	out := make(map[string]*Result, len(jobs))
	for _, r := range results {
		if r.Err != nil {
			return nil, fmt.Errorf("core: job %q (%s): %w", r.Key, r.Strategy, r.Err)
		}
		out[r.Key] = r.Result
	}
	return out, nil
}
