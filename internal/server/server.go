package server

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"fastsc/internal/compile"
	"fastsc/internal/core"
	"fastsc/internal/phys"
	"fastsc/internal/topology"
)

// Config tunes a compile server. The zero value selects sensible defaults
// for a single-node daemon; see withDefaults.
type Config struct {
	// Workers is the per-request worker budget: each admitted batch runs
	// on its own bounded pool of at most this many workers (instead of the
	// CLI's one global pool), so a wide batch cannot starve its neighbors.
	// <= 0 selects GOMAXPROCS.
	Workers int
	// MaxConcurrent bounds the number of batches compiling simultaneously;
	// admitted batches beyond it wait for a slot, which goes to the
	// highest priority first and FIFO within a priority class. <= 0
	// selects 2.
	MaxConcurrent int
	// MaxQueue bounds the batches waiting for a slot; a submission beyond
	// MaxConcurrent+MaxQueue is rejected with 429. < 0 means no queue
	// (reject whenever all slots are busy); 0 selects 16.
	MaxQueue int
	// MaxJobs bounds the jobs of one batch (400 beyond it). <= 0 selects
	// 256.
	MaxJobs int
	// CacheCapacity is the process-wide compile cache capacity in cost
	// units (see compile.NewCache). <= 0 selects the default.
	CacheCapacity int
}

// storedBatches bounds the finished async batches kept for polling; the
// oldest finished batch is evicted beyond it.
const storedBatches = 256

// maxBodyBytes bounds a request body (413 beyond it).
const maxBodyBytes = 8 << 20

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 2
	}
	switch {
	case c.MaxQueue < 0:
		c.MaxQueue = 0
	case c.MaxQueue == 0:
		c.MaxQueue = 16
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 256
	}
	return c
}

// Server is the compilation service: one process-wide compile.Context
// (sharded single-flight cache) shared by every request, an admission
// controller in front of it, and the HTTP handlers of docs/api.md on top.
// Create one with New, mount Handler on an http.Server, and call Shutdown
// (or Drain) when terminating.
type Server struct {
	cfg     Config
	base    *compile.Context
	adm     *admitter
	wg      sync.WaitGroup
	store   *batchStore
	systems systemCache
	mux     *http.ServeMux
	started time.Time

	admitted atomic.Int64 // batches admitted and not yet finished
	running  atomic.Int64 // batches holding a compile slot
	draining atomic.Bool

	// snapshot is the boot-time snapshot load, set by LoadSnapshot before
	// the server serves and exported by /metrics.
	snapshot     compile.LoadResult
	mStreams     atomic.Int64
	mSubmits     atomic.Int64
	mPolls       atomic.Int64
	mBatchesDone atomic.Int64
	mJobs        atomic.Int64
	mJobsFailed  atomic.Int64
	mJobPanics   atomic.Int64
	mRejectQueue atomic.Int64
	mRejectDrain atomic.Int64
	mShed        atomic.Int64
	mExpired     atomic.Int64

	// batchEWMA holds the float64 bits of an exponentially weighted moving
	// average of batch wall time (seconds), feeding Retry-After.
	batchEWMA atomic.Uint64

	hBatchSeconds *histogram
	hWaitSeconds  *histogram

	// startGate, when set (tests only), runs after a batch acquires its
	// compile slot and before any job starts.
	startGate func()
}

// New returns a Server with a fresh process-wide cache.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:           cfg,
		base:          &compile.Context{Cache: compile.NewCache(cfg.CacheCapacity)},
		adm:           newAdmitter(cfg.MaxConcurrent, cfg.MaxQueue),
		store:         newBatchStore(storedBatches),
		systems:       systemCache{m: make(map[sysKey]*phys.System)},
		started:       time.Now(),
		hBatchSeconds: newHistogram(),
		hWaitSeconds:  newHistogram(),
	}
	s.routes()
	return s
}

// Cache exposes the process-wide cache, for snapshot saves
// (compile.Cache.Save) and for callers that compile against it directly.
func (s *Server) Cache() *compile.Cache { return s.base.Cache }

// LoadSnapshot warms the process-wide cache from a snapshot written by
// Cache().Save (see compile.Cache.LoadSnapshot) and records the result,
// exported as fastscd_snapshot_restored_entries and, for a discarded
// file, fastscd_snapshot_degraded_total{reason=...}. Call it at most once,
// before Handler serves.
func (s *Server) LoadSnapshot(path string) (compile.LoadResult, error) {
	res, err := s.base.Cache.LoadSnapshot(path)
	s.snapshot = res
	return res, err
}

// Store exposes the async batch store for durable open/save at the daemon
// boundary (see batchStore.Open and batchStore.SaveNow).
func (s *Server) Store() *batchStore { return s.store }

// Handler returns the root HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Drain puts the server into draining mode: every subsequent submission
// (streaming or async) is rejected with 503, while batches already
// admitted — including those still waiting for a compile slot — run to
// completion and read-only endpoints (poll, metrics, meta) stay available.
// Drain is idempotent.
func (s *Server) Drain() { s.draining.Store(true) }

// Draining reports whether Drain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Shutdown drains the server and blocks until every admitted batch has
// finished or ctx expires. On a clean drain it returns nil and the caller
// can persist the cache snapshot; on timeout it returns ctx's error with
// batches possibly still running.
func (s *Server) Shutdown(ctx context.Context) error {
	s.Drain()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("server: drain interrupted with %d batches in flight: %w", s.admitted.Load(), ctx.Err())
	}
}

// admit reserves a place for one batch: the drain gate, then a slot or
// queue position from the priority admitter. On success the caller must
// redeem the ticket with runBatch (which waits for the slot) and call the
// returned release exactly once after the batch finishes. The draining
// check runs after the WaitGroup reservation so a concurrent Drain+Shutdown
// can never miss a batch that passed the check. A full queue is a 429
// whose Retry-After estimates when a slot should free (see retryAfter).
func (s *Server) admit(pb *parsedBatch) (tkt *ticket, release func(), aerr *apiError) {
	s.wg.Add(1)
	s.admitted.Add(1)
	release = func() {
		s.admitted.Add(-1)
		s.wg.Done()
	}
	if s.draining.Load() {
		release()
		s.mRejectDrain.Add(1)
		return nil, nil, &apiError{status: http.StatusServiceUnavailable,
			msg: "server is draining", retryAfter: 1}
	}
	tkt, err := s.adm.reserve(pb.prio, pb.deadlineAt)
	if err != nil {
		release()
		s.mRejectQueue.Add(1)
		return nil, nil, &apiError{status: http.StatusTooManyRequests, msg: fmt.Sprintf(
			"queue full: %d running and %d queued batches at equal or higher priority (limit %d running + %d queued)",
			s.cfg.MaxConcurrent, s.cfg.MaxQueue, s.cfg.MaxConcurrent, s.cfg.MaxQueue),
			retryAfter: s.retryAfter()}
	}
	return tkt, release, nil
}

// ewmaBatchSeconds returns the smoothed batch wall time, defaulting to one
// second before any batch has finished.
func (s *Server) ewmaBatchSeconds() float64 {
	if bits := s.batchEWMA.Load(); bits != 0 {
		return math.Float64frombits(bits)
	}
	return 1
}

// observeBatchSeconds folds one batch duration into the EWMA (α = 0.2).
func (s *Server) observeBatchSeconds(d float64) {
	for {
		old := s.batchEWMA.Load()
		next := d
		if old != 0 {
			next = 0.8*math.Float64frombits(old) + 0.2*d
		}
		if s.batchEWMA.CompareAndSwap(old, math.Float64bits(next)) {
			return
		}
	}
}

// retryAfter derives a Retry-After hint (seconds) from the queue depth and
// the smoothed batch duration: with depth waiters ahead and MaxConcurrent
// slots draining one EWMA-duration batch each, a slot should free in about
// (depth+1)·ewma/slots seconds. Clamped to [1, 120] so a misbehaving EWMA
// can never tell clients to go away for an hour.
func (s *Server) retryAfter() int {
	secs := float64(s.adm.depth()+1) * s.ewmaBatchSeconds() / float64(s.cfg.MaxConcurrent)
	n := int(math.Ceil(secs))
	if n < 1 {
		n = 1
	}
	if n > 120 {
		n = 120
	}
	return n
}

// batchStatus maps the cause a batch stopped for to its terminal wire
// status: "expired" (its deadline passed), "shed" (evicted for
// higher-priority work), "canceled" (client disconnect or server
// shutdown), or "done".
func batchStatus(cause error) string {
	switch {
	case cause == nil:
		return "done"
	case errors.Is(cause, compile.ErrDeadline):
		return "expired"
	case errors.Is(cause, ErrShed):
		return "shed"
	default:
		return "canceled"
	}
}

// runBatch compiles one admitted batch: it redeems the admission ticket
// (waiting for a compile slot), fans the jobs through the engine on a
// request-scoped Context (shared cache, per-request worker budget and
// stats Recorder), and emits one ResultLine per job in completion order
// followed by the DoneLine. ctx aborts jobs not yet started (client
// disconnect or deadline, with context.Cause carried into each skipped
// job's error); emit errors likewise abort the remainder. The returned
// status is the terminal batchStatus of this run.
func (s *Server) runBatch(ctx context.Context, pb *parsedBatch, batchID string, tkt *ticket, emit func(line any) error, onRunning func()) (DoneLine, string) {
	start := time.Now()
	if err := tkt.wait(ctx); err != nil {
		// Shed, expired or abandoned without ever holding a slot. Shedding
		// is counted here, off the wait error, so an admitter-shed batch
		// and a self-expired one are each counted exactly once.
		s.hWaitSeconds.observe(time.Since(start).Seconds())
		switch {
		case errors.Is(err, compile.ErrDeadline):
			s.mExpired.Add(1)
		case errors.Is(err, ErrShed):
			s.mShed.Add(1)
		}
		return s.finishAborted(err, pb, batchID, emit, start), batchStatus(err)
	}
	s.hWaitSeconds.observe(time.Since(start).Seconds())
	s.running.Add(1)
	defer func() {
		s.running.Add(-1)
		tkt.release()
	}()
	if onRunning != nil {
		onRunning()
	}
	if s.startGate != nil {
		s.startGate()
	}

	workers := s.cfg.Workers
	if pb.workers > 0 && pb.workers < workers {
		workers = pb.workers
	}
	cctx := s.base.Scoped(workers)

	failed := 0
	for r := range core.BatchCompileCtx(ctx, cctx, pb.jobs) {
		line := toResultLine(r, pb.ids[r.Index], pb.verbose)
		if r.Err != nil {
			failed++
			if errors.Is(r.Err, compile.ErrJobPanic) {
				s.mJobPanics.Add(1)
			}
		}
		if emit != nil {
			if err := emit(line); err != nil {
				emit = nil // client gone; drain the channel, drop output
			}
		}
	}
	s.mJobs.Add(int64(len(pb.jobs)))
	s.mJobsFailed.Add(int64(failed))
	s.mBatchesDone.Add(1)
	elapsed := time.Since(start)
	s.hBatchSeconds.observe(elapsed.Seconds())
	s.observeBatchSeconds(elapsed.Seconds())

	status := batchStatus(context.Cause(ctx))
	if status == "expired" {
		s.mExpired.Add(1)
	}
	done := DoneLine{
		Type:          "done",
		Batch:         batchID,
		Jobs:          len(pb.jobs),
		Failed:        failed,
		ElapsedMicros: elapsed.Microseconds(),
		Cache:         toCacheReport(cctx.Record),
	}
	if emit != nil {
		_ = emit(done)
	}
	return done, status
}

// finishAborted reports a batch that stopped before it got a compile slot
// — shed, expired, or its client disconnected: every job is an error line
// carrying the cause, nothing is computed.
func (s *Server) finishAborted(cause error, pb *parsedBatch, batchID string, emit func(line any) error, start time.Time) DoneLine {
	for i := range pb.jobs {
		line := ResultLine{
			Type: "error", ID: pb.ids[i], Index: i, Strategy: pb.jobs[i].Strategy,
			Error: fmt.Sprintf("not started: %v", cause),
		}
		if emit != nil {
			if err := emit(line); err != nil {
				emit = nil
			}
		}
	}
	s.mBatchesDone.Add(1)
	s.mJobs.Add(int64(len(pb.jobs)))
	s.mJobsFailed.Add(int64(len(pb.jobs)))
	done := DoneLine{
		Type: "done", Batch: batchID, Jobs: len(pb.jobs), Failed: len(pb.jobs),
		ElapsedMicros: time.Since(start).Microseconds(),
		Cache:         toCacheReport(compile.NewRecorder()),
	}
	if emit != nil {
		_ = emit(done)
	}
	return done
}

// sysKey identifies one simulated system: the textual topology spec, the
// qubit count and the fabrication seed.
type sysKey struct {
	topo string
	n    int
	seed int64
}

// systemCache memoizes characterized systems across requests, so repeat
// submissions against the same named device share one *phys.System (and
// therefore hash its content signature over identical memory). Bounded by
// sysCacheLimit; eviction is arbitrary — rebuilding a system is cheap, the
// cache only exists to keep the common case allocation-free.
type systemCache struct {
	mu sync.Mutex
	m  map[sysKey]*phys.System
}

const sysCacheLimit = 64

func (c *systemCache) get(topo string, n int, seed int64) (*phys.System, error) {
	key := sysKey{topo: topo, n: n, seed: seed}
	c.mu.Lock()
	if sys, ok := c.m[key]; ok {
		c.mu.Unlock()
		return sys, nil
	}
	c.mu.Unlock()
	dev, err := topology.FromSpec(topo, n)
	if err != nil {
		return nil, err
	}
	sys := phys.NewSystem(dev, phys.DefaultParams(), seed)
	c.mu.Lock()
	defer c.mu.Unlock()
	if have, ok := c.m[key]; ok { // lost a build race: share the winner
		return have, nil
	}
	if len(c.m) >= sysCacheLimit {
		for k := range c.m {
			delete(c.m, k)
			break
		}
	}
	c.m[key] = sys
	return sys, nil
}
