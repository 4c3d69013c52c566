package compile

import (
	"sync"

	"fastsc/internal/smt"
)

// Intra-job parallelism. The batch engine (engine.go) spends the Context's
// worker budget across jobs; the helpers here let a single job borrow the
// *spare* part of that budget — Workers−1 tokens, the caller's own worker
// being the implicit first — for parallelism inside one compilation:
// fanning the independent components of a slice or speculatively
// evaluating SMT bisection probes. Borrowing
// is always non-blocking (a busy pool degrades to inline execution, never
// to waiting), so intra-job parallelism can never deadlock against the
// batch pool, and the worst-case goroutine count is bounded by roughly
// twice the budget: Workers pool workers plus Workers−1 borrowed slots.
//
// A Context with Workers <= 1 has no spare slots, and every helper
// degrades to strictly serial inline execution — the property the
// determinism benchmarks' "serial" variants and the parallel-vs-serial
// equivalence tests rely on.

// spareSlots is the lazily built intra-job worker semaphore of one
// Context. A nil channel means "no spare workers".
type spareSlots struct{ ch chan struct{} }

// slots returns the Context's spare-worker semaphore, building it (once)
// on first use; nil when the budget leaves no spare worker or the Context
// itself is nil.
func (c *Context) slots() chan struct{} {
	if c == nil {
		return nil
	}
	if s := c.spare.Load(); s != nil {
		return s.ch
	}
	s := &spareSlots{}
	if n := c.workers() - 1; n > 0 {
		s.ch = make(chan struct{}, n)
	}
	if !c.spare.CompareAndSwap(nil, s) {
		s = c.spare.Load()
	}
	return s.ch
}

// ForEach runs fn(0), fn(1), …, fn(n−1), fanning iterations across the
// Context's free spare workers and running the rest inline; it returns
// once every iteration has finished. Iterations may run concurrently and
// in any order, so fn must be safe for concurrent invocation and should
// write its result to a caller-owned slot indexed by i — which is what
// makes the fan-out deterministic regardless of scheduling. A panic in
// any iteration is re-raised in the caller after the remaining iterations
// drain. With no spare workers (nil Context, Workers <= 1) the loop is
// strictly serial and allocation-free.
func (c *Context) ForEach(n int, fn func(int)) {
	slots := c.slots()
	if slots == nil || n < 2 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	var panicMu sync.Mutex
	var panicked any
	run := func(i int) {
		defer func() {
			if r := recover(); r != nil {
				panicMu.Lock()
				if panicked == nil {
					panicked = r
				}
				panicMu.Unlock()
			}
		}()
		fn(i)
	}
	for i := 0; i < n; i++ {
		if i == n-1 {
			// The caller always runs the last iteration itself instead of
			// parking on the WaitGroup with work still undone.
			run(i)
			break
		}
		select {
		case slots <- struct{}{}:
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				defer func() { <-slots }()
				run(i)
			}(i)
		default:
			run(i)
		}
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}

// parallelFor adapts the Context's spare-worker fan-out to the smt
// package's ParallelFor callback. It returns nil — keeping smt.SolveWith
// on its allocation-free strictly serial path — when the Context has no
// spare workers at all (nil Context or Workers <= 1).
func (c *Context) parallelFor() smt.ParallelFor {
	if c.slots() == nil {
		return nil
	}
	return c.ForEach
}
