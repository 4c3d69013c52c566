package compile

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"fastsc/internal/faultpoint"
)

// ErrDeadline is the typed cause a serving layer attaches to per-request
// deadlines (context.WithDeadlineCause); jobs skipped because the deadline
// expired report an error wrapping it, so callers can distinguish "request
// ran out of budget" from a plain cancellation with errors.Is.
var ErrDeadline = errors.New("compile: request deadline exceeded")

// ErrJobPanic is the base error of an outcome whose job panicked; the
// engine converts per-job panics into this error instead of tearing down
// the batch (or the process), and servers count them with errors.Is.
var ErrJobPanic = errors.New("compile: job panicked")

// Job is one unit of batch work: typically "compile this circuit with this
// strategy on this system", but any function of the shared Context fits.
// Typed wrappers live next to their domain (core.BatchCompile builds Jobs
// from (circuit, strategy, system) triples).
type Job struct {
	// Key identifies the job in its Outcome, e.g. "bv(4)/ColorDynamic".
	Key string
	// Run performs the work. It receives the batch's shared Context (cache
	// + parallelism budget) and may be called from any worker goroutine.
	Run func(*Context) (any, error)
}

// Outcome is one finished job, streamed in completion order.
type Outcome struct {
	// Index is the job's position in the submitted slice, so callers can
	// reassemble deterministic output from completion-ordered results.
	Index int
	// Key echoes Job.Key.
	Key string
	// Value is Run's result when Err is nil.
	Value any
	// Err is Run's error, or a wrapped panic.
	Err error
	// Elapsed is the job's wall-clock run time.
	Elapsed time.Duration
}

// RunBatch fans jobs across a bounded worker pool (ctx.Workers, defaulting
// to GOMAXPROCS) and streams outcomes over the returned channel as they
// complete. The channel is closed after the last outcome. A panicking job
// is reported as that job's Err rather than tearing down the batch.
func (c *Context) RunBatch(jobs []Job) <-chan Outcome {
	return c.RunBatchCtx(context.Background(), jobs)
}

// RunBatchCtx is RunBatch under a cancellation context: when ctx is
// canceled, jobs already running finish normally (their outcomes are still
// streamed) and every job not yet started is reported with Err wrapping
// ctx's cancellation cause instead of being run — a skipped job costs no
// worker time. When the context carries a typed cause (the server arms
// request deadlines with ErrDeadline via context.WithDeadlineCause), that
// cause survives into each skipped job's error, so errors.Is(err,
// compile.ErrDeadline) identifies deadline-shed work end to end. Every
// submitted job yields exactly one outcome either way, so
// CollectBatch-style consumers never block. This is the primitive a
// serving layer builds drain, deadline and client-disconnect semantics on.
func (c *Context) RunBatchCtx(ctx context.Context, jobs []Job) <-chan Outcome {
	if ctx == nil {
		ctx = context.Background()
	}
	out := make(chan Outcome, len(jobs))
	workers := c.workers()
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if workers < 1 {
		close(out)
		return out
	}
	feed := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range feed {
				if ctx.Err() != nil {
					out <- Outcome{
						Index: i,
						Key:   jobs[i].Key,
						Err:   fmt.Errorf("compile: job %q not started: %w", jobs[i].Key, context.Cause(ctx)),
					}
					continue
				}
				out <- c.runOne(i, jobs[i])
			}
		}()
	}
	go func() {
		for i := range jobs {
			feed <- i
		}
		close(feed)
		wg.Wait()
		close(out)
	}()
	return out
}

func (c *Context) runOne(index int, job Job) (o Outcome) {
	o = Outcome{Index: index, Key: job.Key}
	start := time.Now()
	defer func() {
		o.Elapsed = time.Since(start)
		if r := recover(); r != nil {
			o.Err = fmt.Errorf("%w: job %q: %v", ErrJobPanic, job.Key, r)
		}
	}()
	faultpoint.MaybePanic(faultpoint.JobPanic)
	o.Value, o.Err = job.Run(c)
	return o
}

// CollectBatch runs jobs and returns their outcomes ordered by submission
// index — the deterministic counterpart of RunBatch for callers that want
// the whole batch before proceeding.
func (c *Context) CollectBatch(jobs []Job) []Outcome {
	out := make([]Outcome, len(jobs))
	for o := range c.RunBatch(jobs) {
		out[o.Index] = o
	}
	return out
}

// FirstError returns the first error among outcomes in submission order,
// or nil.
func FirstError(outcomes []Outcome) error {
	for _, o := range outcomes {
		if o.Err != nil {
			return fmt.Errorf("compile: job %q: %w", o.Key, o.Err)
		}
	}
	return nil
}
