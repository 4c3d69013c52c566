package compile

import (
	"sync/atomic"
	"testing"
	"time"
)

func TestForEachSerialWhenNoSpareWorkers(t *testing.T) {
	for _, tc := range []struct {
		name string
		ctx  *Context
	}{
		{"nil context", nil},
		{"one worker", &Context{Workers: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var order []int
			tc.ctx.ForEach(5, func(i int) { order = append(order, i) })
			if len(order) != 5 {
				t.Fatalf("ran %d iterations, want 5", len(order))
			}
			for i, v := range order {
				if v != i {
					t.Fatalf("serial ForEach ran out of order: %v", order)
				}
			}
		})
	}
}

func TestForEachRunsEveryIteration(t *testing.T) {
	ctx := &Context{Workers: 4}
	const n = 100
	got := make([]int32, n)
	ctx.ForEach(n, func(i int) { atomic.AddInt32(&got[i], 1) })
	for i, v := range got {
		if v != 1 {
			t.Fatalf("iteration %d ran %d times, want 1", i, v)
		}
	}
}

func TestForEachPropagatesPanic(t *testing.T) {
	ctx := &Context{Workers: 4}
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("recovered %v, want boom", r)
		}
	}()
	ctx.ForEach(8, func(i int) {
		if i == 2 {
			panic("boom")
		}
	})
	t.Fatal("ForEach returned despite panicking iteration")
}

func TestForEachZeroIterations(t *testing.T) {
	ctx := &Context{Workers: 4}
	ctx.ForEach(0, func(i int) { t.Fatalf("fn(%d) called for n=0", i) })
}

func TestParallelForNilWithoutSpareWorkers(t *testing.T) {
	if (&Context{Workers: 1}).parallelFor() != nil {
		t.Fatal("parallelFor non-nil with Workers=1")
	}
	var nilCtx *Context
	if nilCtx.parallelFor() != nil {
		t.Fatal("parallelFor non-nil on nil Context")
	}
	if (&Context{Workers: 4}).parallelFor() == nil {
		t.Fatal("parallelFor nil with spare workers")
	}
}

func TestSingleFlightLeaderPanicCleansUp(t *testing.T) {
	var g flightGroup
	func() {
		defer func() {
			if recover() != "boom" {
				t.Fatal("leader did not re-panic")
			}
		}()
		g.do("k", func() (any, error) { panic("boom") })
	}()
	// The key must have been forgotten: a fresh call computes, not hangs.
	v, err := g.do("k", func() (any, error) { return 7, nil })
	if err != nil || v.(int) != 7 {
		t.Fatalf("do after panic = (%v, %v), want (7, nil)", v, err)
	}
}

func TestSingleFlightPanicReachesWaiters(t *testing.T) {
	var g flightGroup
	inFlight := make(chan struct{})
	release := make(chan struct{})
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		defer func() { _ = recover() }()
		g.do("k", func() (any, error) {
			close(inFlight)
			<-release
			panic("boom")
		})
	}()
	<-inFlight
	waiterPanic := make(chan any, 1)
	go func() {
		defer func() { waiterPanic <- recover() }()
		// Joins the in-flight call (or, if timing loses the race and the
		// flight already resolved, becomes a fresh leader that panics the
		// same way — either path must deliver the panic).
		g.do("k", func() (any, error) { panic("boom") })
	}()
	time.Sleep(10 * time.Millisecond)
	close(release)
	if r := <-waiterPanic; r != "boom" {
		t.Fatalf("waiter recovered %v, want boom", r)
	}
	<-leaderDone
}
