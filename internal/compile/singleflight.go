package compile

import "sync"

// flightGroup deduplicates concurrent computations of the same key: the
// first caller (the leader) runs the function while every concurrent
// caller for that key blocks on the leader's WaitGroup and shares its
// result. This is the classic singleflight pattern (cf.
// golang.org/x/sync/singleflight), reimplemented here because the module
// takes no external dependencies.
//
// Errors are shared with the waiters of the in-flight call but are never
// remembered: once the leader returns, the key is forgotten and the next
// caller computes afresh. That matches Cache.Do's "errors are not
// cached" contract.
//
// Panics propagate: if fn panics, the leader's panic is re-raised in the
// leader AND in every waiter of that flight, and the key is forgotten.
// Without this, a panicking compute would strand its waiters on a
// WaitGroup that never completes — a deadlock that matters now that a
// compilation's own speculative workers (the component fan-out) race the
// main thread to the same keys while the batch engine's per-job panic
// guard expects the panic, not a hang.
type flightGroup struct {
	mu    sync.Mutex
	calls map[string]*flightCall
}

type flightCall struct {
	wg       sync.WaitGroup
	val      any
	err      error
	panicked any // non-nil when fn panicked; waiters re-raise it
}

// do runs fn exactly once per key among concurrent callers and returns
// its result to all of them. Callers that arrive after the in-flight
// call completes start a new one.
func (g *flightGroup) do(key string, fn func() (any, error)) (any, error) {
	g.mu.Lock()
	if g.calls == nil {
		g.calls = make(map[string]*flightCall)
	}
	if c, ok := g.calls[key]; ok {
		g.mu.Unlock()
		c.wg.Wait()
		if c.panicked != nil {
			panic(c.panicked)
		}
		return c.val, c.err
	}
	c := &flightCall{}
	c.wg.Add(1)
	g.calls[key] = c
	g.mu.Unlock()

	func() {
		defer func() {
			if r := recover(); r != nil {
				c.panicked = r
			}
			c.wg.Done()
			g.mu.Lock()
			delete(g.calls, key)
			g.mu.Unlock()
		}()
		c.val, c.err = fn()
	}()
	if c.panicked != nil {
		panic(c.panicked)
	}
	return c.val, c.err
}
