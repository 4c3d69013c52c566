package compile

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"fastsc/internal/faultpoint"
)

func TestRunBatchDeliversEveryJob(t *testing.T) {
	ctx := NewContext(4)
	const n = 50
	jobs := make([]Job, n)
	for i := range jobs {
		i := i
		jobs[i] = Job{
			Key: fmt.Sprintf("job%d", i),
			Run: func(*Context) (any, error) { return i * i, nil },
		}
	}
	seen := make(map[int]bool)
	for o := range ctx.RunBatch(jobs) {
		if o.Err != nil {
			t.Fatal(o.Err)
		}
		if o.Value.(int) != o.Index*o.Index {
			t.Fatalf("job %d returned %v", o.Index, o.Value)
		}
		if seen[o.Index] {
			t.Fatalf("job %d delivered twice", o.Index)
		}
		seen[o.Index] = true
	}
	if len(seen) != n {
		t.Fatalf("delivered %d outcomes, want %d", len(seen), n)
	}
}

func TestRunBatchRespectsWorkerBudget(t *testing.T) {
	const workers = 3
	const n = 12
	ctx := NewContext(workers)
	var inFlight, peak int64
	started := make(chan struct{}, n)
	gate := make(chan struct{})
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{
			Key: fmt.Sprintf("job%d", i),
			Run: func(*Context) (any, error) {
				cur := atomic.AddInt64(&inFlight, 1)
				for {
					old := atomic.LoadInt64(&peak)
					if cur <= old || atomic.CompareAndSwapInt64(&peak, old, cur) {
						break
					}
				}
				started <- struct{}{}
				<-gate // hold the worker so concurrency actually peaks
				atomic.AddInt64(&inFlight, -1)
				return nil, nil
			},
		}
	}
	done := make(chan struct{})
	go func() {
		for range ctx.RunBatch(jobs) {
		}
		close(done)
	}()
	// Wait until the full worker pool is occupied, then release all jobs.
	for i := 0; i < workers; i++ {
		<-started
	}
	for i := 0; i < n; i++ {
		gate <- struct{}{}
	}
	<-done
	if p := atomic.LoadInt64(&peak); p != workers {
		t.Fatalf("observed peak of %d concurrent jobs, budget is %d", p, workers)
	}
}

func TestRunBatchPropagatesErrors(t *testing.T) {
	ctx := NewContext(2)
	boom := errors.New("boom")
	jobs := []Job{
		{Key: "ok", Run: func(*Context) (any, error) { return 1, nil }},
		{Key: "bad", Run: func(*Context) (any, error) { return nil, boom }},
	}
	outcomes := ctx.CollectBatch(jobs)
	if outcomes[0].Err != nil || outcomes[0].Value.(int) != 1 {
		t.Fatalf("ok job: %+v", outcomes[0])
	}
	if !errors.Is(outcomes[1].Err, boom) {
		t.Fatalf("bad job err = %v", outcomes[1].Err)
	}
	if err := FirstError(outcomes); !errors.Is(err, boom) {
		t.Fatalf("FirstError = %v", err)
	}
}

func TestRunBatchRecoversPanics(t *testing.T) {
	ctx := NewContext(2)
	jobs := []Job{
		{Key: "panics", Run: func(*Context) (any, error) { panic("kaboom") }},
		{Key: "fine", Run: func(*Context) (any, error) { return "ok", nil }},
	}
	outcomes := ctx.CollectBatch(jobs)
	if outcomes[0].Err == nil {
		t.Fatal("panic was not converted to an error")
	}
	if outcomes[1].Err != nil || outcomes[1].Value != "ok" {
		t.Fatalf("sibling job was damaged: %+v", outcomes[1])
	}
}

// TestRunBatchCtxDeadlineCause: when the context carries a typed deadline
// cause (the server's per-request deadline_ms), jobs skipped after expiry
// report an error wrapping that cause — errors.Is identifies deadline-shed
// work through the whole engine — and skipped jobs burn no worker time.
func TestRunBatchCtxDeadlineCause(t *testing.T) {
	cctx := NewContext(1)
	ctx, cancel := context.WithDeadlineCause(context.Background(),
		time.Now().Add(10*time.Millisecond), ErrDeadline)
	defer cancel()

	var ran atomic.Int64
	block := make(chan struct{})
	jobs := []Job{
		{Key: "running", Run: func(*Context) (any, error) {
			ran.Add(1)
			<-block // outlive the deadline; started jobs finish normally
			return "done", nil
		}},
		{Key: "skipped", Run: func(*Context) (any, error) { ran.Add(1); return nil, nil }},
	}
	out := cctx.RunBatchCtx(ctx, jobs)
	<-ctx.Done() // deadline passes while job 0 is still running
	close(block)

	outcomes := make([]Outcome, len(jobs))
	for o := range out {
		outcomes[o.Index] = o
	}
	if outcomes[0].Err != nil || outcomes[0].Value != "done" {
		t.Fatalf("started job: %+v", outcomes[0])
	}
	if !errors.Is(outcomes[1].Err, ErrDeadline) {
		t.Fatalf("skipped job err = %v, want errors.Is(_, ErrDeadline)", outcomes[1].Err)
	}
	if got := ran.Load(); got != 1 {
		t.Fatalf("%d jobs ran, want 1 (expired job must not occupy a worker)", got)
	}
}

// TestRunBatchPanicSentinel: a panicking job's outcome wraps ErrJobPanic so
// serving layers can count panics without string matching.
func TestRunBatchPanicSentinel(t *testing.T) {
	ctx := NewContext(1)
	outcomes := ctx.CollectBatch([]Job{
		{Key: "panics", Run: func(*Context) (any, error) { panic("kaboom") }},
	})
	if !errors.Is(outcomes[0].Err, ErrJobPanic) {
		t.Fatalf("err = %v, want errors.Is(_, ErrJobPanic)", outcomes[0].Err)
	}
}

// TestRunBatchFaultpointPanic: the job.panic fault point fires inside a
// worker and is recovered per job — one job fails, its siblings and the
// batch survive. This is the unit-level twin of the chaos smoke's
// daemon-survives-a-panicking-job assertion.
func TestRunBatchFaultpointPanic(t *testing.T) {
	defer faultpoint.Reset()
	faultpoint.Reset()
	if err := faultpoint.Arm(faultpoint.JobPanic + "*1"); err != nil {
		t.Fatal(err)
	}
	ctx := NewContext(1) // serial: the single armed firing hits job 0
	outcomes := ctx.CollectBatch([]Job{
		{Key: "victim", Run: func(*Context) (any, error) { return "unreached", nil }},
		{Key: "survivor", Run: func(*Context) (any, error) { return "ok", nil }},
	})
	if !errors.Is(outcomes[0].Err, ErrJobPanic) {
		t.Fatalf("victim err = %v, want ErrJobPanic", outcomes[0].Err)
	}
	if outcomes[1].Err != nil || outcomes[1].Value != "ok" {
		t.Fatalf("survivor: %+v", outcomes[1])
	}
	if faultpoint.Fired(faultpoint.JobPanic) != 1 {
		t.Fatalf("fired %d, want 1", faultpoint.Fired(faultpoint.JobPanic))
	}
}

func TestCollectBatchPreservesSubmissionOrder(t *testing.T) {
	ctx := NewContext(8)
	jobs := make([]Job, 20)
	for i := range jobs {
		i := i
		jobs[i] = Job{Key: fmt.Sprintf("j%d", i), Run: func(*Context) (any, error) { return i, nil }}
	}
	outcomes := ctx.CollectBatch(jobs)
	for i, o := range outcomes {
		if o.Index != i || o.Value.(int) != i {
			t.Fatalf("outcome %d = %+v", i, o)
		}
	}
}

func TestRunBatchZeroContextAndEmptyBatch(t *testing.T) {
	ctx := &Context{}
	outcomes := ctx.CollectBatch([]Job{
		{Key: "a", Run: func(c *Context) (any, error) {
			if c != ctx {
				return nil, errors.New("job did not receive the batch's Context")
			}
			return 42, nil
		}},
	})
	if outcomes[0].Err != nil || outcomes[0].Value.(int) != 42 {
		t.Fatalf("zero-context batch: %+v", outcomes[0])
	}
	for range ctx.RunBatch(nil) {
		t.Fatal("empty batch emitted an outcome")
	}
}

// TestBatchSharedCacheUnderRace runs many jobs that all hit the same cache
// keys; with -race this validates the engine/cache combination end to end.
func TestBatchSharedCacheUnderRace(t *testing.T) {
	ctx := NewContext(8)
	jobs := make([]Job, 64)
	for i := range jobs {
		i := i
		jobs[i] = Job{
			Key: fmt.Sprintf("j%d", i),
			Run: func(c *Context) (any, error) {
				v, _, err := c.Cache.Do("shared", fmt.Sprintf("k%d", i%4), func() (any, error) {
					return i % 4, nil
				})
				return v, err
			},
		}
	}
	for _, o := range ctx.CollectBatch(jobs) {
		if o.Err != nil {
			t.Fatal(o.Err)
		}
		if o.Value.(int) != o.Index%4 {
			t.Fatalf("job %d: cached value %v", o.Index, o.Value)
		}
	}
	total := ctx.Cache.TotalStats()
	if total.Hits == 0 {
		t.Fatal("shared cache recorded no hits across the batch")
	}
}
