package compile

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
)

func TestScopedRecorderAttribution(t *testing.T) {
	base := NewContext(2)

	// Two scoped contexts share the cache but not the recorder.
	a := base.Scoped(1)
	b := base.Scoped(1)
	if a.Cache != base.Cache || b.Cache != base.Cache {
		t.Fatal("Scoped must share the base cache")
	}
	if a.Record == nil || b.Record == nil || a.Record == b.Record {
		t.Fatal("Scoped must hand out fresh recorders")
	}

	computes := 0
	lookup := func(c *Context) {
		_, _ = c.Static("k", func() (SliceSolution, error) {
			computes++
			return SliceSolution{NumColors: 1}, nil
		})
	}
	lookup(a) // cold: a records the miss
	lookup(b) // warm: b records a hit
	lookup(b)

	if computes != 1 {
		t.Fatalf("compute ran %d times, want 1", computes)
	}
	at, bt := a.Record.Total(), b.Record.Total()
	if at.Misses != 1 || at.Hits != 0 {
		t.Errorf("a recorded %+v, want 1 miss", at)
	}
	if bt.Hits != 2 || bt.Misses != 0 {
		t.Errorf("b recorded %+v, want 2 hits", bt)
	}
	regions := a.Record.StatsByRegion()
	if regions[RegionStatic].Misses != 1 {
		t.Errorf("a region stats = %+v", regions)
	}
	// The base context has no recorder; its lookups must not panic.
	lookup(base)
}

func TestScopedWithoutCacheRecordsMisses(t *testing.T) {
	c := (&Context{}).Scoped(1)
	if _, err := c.Static("k", func() (SliceSolution, error) { return SliceSolution{}, nil }); err != nil {
		t.Fatal(err)
	}
	if tot := c.Record.Total(); tot.Misses != 1 || tot.Hits != 0 {
		t.Errorf("cacheless lookup recorded %+v, want 1 miss", tot)
	}
}

func TestRecorderConcurrent(t *testing.T) {
	rec := NewRecorder()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				rec.record(RegionSMT, j%2 == 0)
			}
		}()
	}
	wg.Wait()
	if tot := rec.Total(); tot.Hits != 400 || tot.Misses != 400 {
		t.Errorf("total = %+v, want 400/400", tot)
	}
}

func TestRunBatchCtxCancelSkipsUnstarted(t *testing.T) {
	c := NewContext(1) // one worker: jobs run strictly in order
	ctx, cancel := context.WithCancel(context.Background())

	started := make(chan struct{})
	release := make(chan struct{})
	jobs := []Job{
		{Key: "first", Run: func(*Context) (any, error) {
			close(started)
			<-release
			return "ok", nil
		}},
		{Key: "second", Run: func(*Context) (any, error) { return "ran", nil }},
	}
	out := c.RunBatchCtx(ctx, jobs)

	<-started // first job is running
	cancel()  // second job must not start
	close(release)

	got := map[string]Outcome{}
	for o := range out {
		got[o.Key] = o
	}
	if len(got) != 2 {
		t.Fatalf("got %d outcomes, want one per job", len(got))
	}
	if got["first"].Err != nil || got["first"].Value != "ok" {
		t.Errorf("running job must finish: %+v", got["first"])
	}
	if err := got["second"].Err; err == nil || !errors.Is(err, context.Canceled) {
		t.Errorf("unstarted job error = %v, want context.Canceled", err)
	} else if !strings.Contains(err.Error(), "not started") {
		t.Errorf("unstarted job error %q does not say so", err)
	}
}

func TestRunBatchCtxNilAndBackground(t *testing.T) {
	c := NewContext(2)
	jobs := []Job{{Key: "a", Run: func(*Context) (any, error) { return 1, nil }}}
	for _, ctx := range []context.Context{nil, context.Background()} {
		n := 0
		for o := range c.RunBatchCtx(ctx, jobs) {
			if o.Err != nil {
				t.Fatal(o.Err)
			}
			n++
		}
		if n != 1 {
			t.Fatalf("got %d outcomes", n)
		}
	}
}
