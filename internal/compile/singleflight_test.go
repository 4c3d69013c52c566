package compile

import (
	"testing"
	"time"
)

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
