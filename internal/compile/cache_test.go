package compile

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fastsc/internal/smt"
)

func TestCacheHitMissAccounting(t *testing.T) {
	c := NewCache(8)
	if _, ok := c.Get("r", "a"); ok {
		t.Fatal("empty cache reported a hit")
	}
	c.Put("r", "a", 1)
	v, ok := c.Get("r", "a")
	if !ok || v.(int) != 1 {
		t.Fatalf("got %v, %v", v, ok)
	}
	s := c.StatsByRegion()["r"]
	if s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss", s)
	}
	if hr := s.HitRate(); hr != 0.5 {
		t.Fatalf("hit rate = %v, want 0.5", hr)
	}
}

func TestCacheRegionsAreIndependent(t *testing.T) {
	c := NewCache(8)
	c.Put("a", "k", "va")
	c.Put("b", "k", "vb")
	if v, _ := c.Get("a", "k"); v != "va" {
		t.Fatalf("region a: got %v", v)
	}
	if v, _ := c.Get("b", "k"); v != "vb" {
		t.Fatalf("region b: got %v", v)
	}
	st := c.StatsByRegion()
	if st["a"].Hits != 1 || st["b"].Hits != 1 {
		t.Fatalf("per-region stats = %+v", st)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// One shard: exact global LRU order is only guaranteed per shard.
	c := NewCacheSharded(2, 1)
	c.Put("r", "a", 1)
	c.Put("r", "b", 2)
	c.Get("r", "a")    // promote a
	c.Put("r", "c", 3) // evicts b (least recently used)
	if _, ok := c.Get("r", "b"); ok {
		t.Fatal("b should have been evicted")
	}
	if _, ok := c.Get("r", "a"); !ok {
		t.Fatal("a should have survived (recently used)")
	}
	if _, ok := c.Get("r", "c"); !ok {
		t.Fatal("c should be present")
	}
	if ev := c.StatsByRegion()["r"].Evictions; ev != 1 {
		t.Fatalf("evictions = %d, want 1", ev)
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
	}
}

func TestCachePutRefreshesExistingKey(t *testing.T) {
	c := NewCache(4)
	c.Put("r", "k", 1)
	c.Put("r", "k", 2)
	if c.Len() != 1 {
		t.Fatalf("len = %d, want 1", c.Len())
	}
	if v, _ := c.Get("r", "k"); v.(int) != 2 {
		t.Fatalf("got %v, want refreshed value 2", v)
	}
}

func TestCacheDoComputesOnceOnHit(t *testing.T) {
	c := NewCache(8)
	calls := 0
	compute := func() (any, error) { calls++; return calls, nil }
	for i := 0; i < 3; i++ {
		v, _, err := c.Do("r", "k", compute)
		if err != nil || v.(int) != 1 {
			t.Fatalf("iteration %d: got %v, %v", i, v, err)
		}
	}
	if calls != 1 {
		t.Fatalf("compute ran %d times, want 1", calls)
	}
}

func TestCacheDoDoesNotCacheErrors(t *testing.T) {
	c := NewCache(8)
	boom := errors.New("boom")
	calls := 0
	for i := 0; i < 2; i++ {
		if _, _, err := c.Do("r", "k", func() (any, error) { calls++; return nil, boom }); !errors.Is(err, boom) {
			t.Fatalf("got err %v", err)
		}
	}
	if calls != 2 {
		t.Fatalf("errored compute should rerun, got %d calls", calls)
	}
}

func TestNilCacheIsInert(t *testing.T) {
	var c *Cache
	v, _, err := c.Do("r", "k", func() (any, error) { return 7, nil })
	if err != nil || v.(int) != 7 {
		t.Fatalf("nil cache Do = %v, %v", v, err)
	}
}

// TestCacheConcurrentStress hammers one cache from many goroutines with
// overlapping keys across regions; run with -race to check synchronization.
func TestCacheConcurrentStress(t *testing.T) {
	c := NewCache(64) // smaller than the working set, to exercise eviction
	const goroutines = 16
	const ops = 2000
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				region := fmt.Sprintf("r%d", i%3)
				key := fmt.Sprintf("k%d", (g+i)%100)
				switch i % 3 {
				case 0:
					c.Put(region, key, i)
				case 1:
					c.Get(region, key)
				default:
					if _, _, err := c.Do(region, key, func() (any, error) { return i, nil }); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > 64 {
		t.Fatalf("cache grew past capacity: %d", c.Len())
	}
	total := c.TotalStats()
	if total.Hits+total.Misses == 0 {
		t.Fatal("no accesses recorded")
	}
}

func TestNewCacheShardedDefaults(t *testing.T) {
	if n := NewCache(0).NumShards(); n < 1 || n&(n-1) != 0 {
		t.Fatalf("default shard count %d is not a power of two", n)
	}
	if n := NewCacheSharded(1024, 3).NumShards(); n != 4 {
		t.Fatalf("shards=3 should round up to 4, got %d", n)
	}
	if n := NewCacheSharded(1024, 1<<20).NumShards(); n != maxShards {
		t.Fatalf("shard count should clamp to %d, got %d", maxShards, n)
	}
	if n := NewCacheSharded(2, 16).NumShards(); n > 2 {
		t.Fatalf("shard count should not exceed capacity, got %d", n)
	}
}

// TestCacheShardedCapacityBound checks that the sharded cache's total size
// stays within shards * ceil(capacity/shards) under a worst-case fill.
func TestCacheShardedCapacityBound(t *testing.T) {
	const capacity, shards = 64, 8
	c := NewCacheSharded(capacity, shards)
	for i := 0; i < 10*capacity; i++ {
		c.Put("r", fmt.Sprintf("k%d", i), i)
	}
	if max := shards * ((capacity + shards - 1) / shards); c.Len() > max {
		t.Fatalf("cache grew to %d entries, cap %d", c.Len(), max)
	}
	if ev := c.StatsByRegion()["r"].Evictions; ev == 0 {
		t.Fatal("overfill recorded no evictions")
	}
}

// TestCacheDoSingleFlight checks the exactly-one-compute contract: many
// goroutines missing on the same key concurrently must trigger one
// computation, with every caller receiving its value. Meaningful under
// -race.
func TestCacheDoSingleFlight(t *testing.T) {
	c := NewCache(64)
	const goroutines = 32
	var computes atomic.Int64
	var ready, done sync.WaitGroup
	ready.Add(goroutines)
	done.Add(goroutines)
	start := make(chan struct{})
	for g := 0; g < goroutines; g++ {
		go func() {
			defer done.Done()
			ready.Done()
			<-start
			v, _, err := c.Do("r", "k", func() (any, error) {
				computes.Add(1)
				time.Sleep(10 * time.Millisecond) // widen the dedup window
				return 42, nil
			})
			if err != nil || v.(int) != 42 {
				t.Errorf("Do = %v, %v", v, err)
			}
		}()
	}
	ready.Wait()
	close(start)
	done.Wait()
	if n := computes.Load(); n != 1 {
		t.Fatalf("compute ran %d times for one key, want exactly 1", n)
	}
}

// TestCacheDoSingleFlightSharesErrors checks that an in-flight error is
// delivered to every waiter but is not cached: the next (sequential)
// caller computes afresh.
func TestCacheDoSingleFlightSharesErrors(t *testing.T) {
	c := NewCache(64)
	boom := errors.New("boom")
	const goroutines = 8
	var computes atomic.Int64
	var ready, done sync.WaitGroup
	ready.Add(goroutines)
	done.Add(goroutines)
	start := make(chan struct{})
	for g := 0; g < goroutines; g++ {
		go func() {
			defer done.Done()
			ready.Done()
			<-start
			if _, _, err := c.Do("r", "k", func() (any, error) {
				computes.Add(1)
				time.Sleep(10 * time.Millisecond)
				return nil, boom
			}); !errors.Is(err, boom) {
				t.Errorf("Do err = %v, want boom", err)
			}
		}()
	}
	ready.Wait()
	close(start)
	done.Wait()
	if n := computes.Load(); n != 1 {
		t.Fatalf("failing compute ran %d times concurrently, want 1", n)
	}
	if _, _, err := c.Do("r", "k", func() (any, error) { return 1, nil }); err != nil {
		t.Fatalf("error was cached: %v", err)
	}
}

// TestSolveSMTMemoization checks that the SMT memo caches both solutions
// and infeasibility verdicts.
func TestSolveSMTMemoization(t *testing.T) {
	ctx := NewContext(1)
	cfg := smt.Config{Lo: 6.15, Hi: 6.95, Alpha: -0.2}
	xs1, d1, err := ctx.SolveSMT(3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	xs2, d2, err := ctx.SolveSMT(3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 || len(xs1) != len(xs2) {
		t.Fatal("memoized solve differs from original")
	}
	for i := range xs1 {
		if xs1[i] != xs2[i] {
			t.Fatal("memoized frequencies differ")
		}
	}
	// Infeasible: far more colors than the band can host.
	if _, _, err := ctx.SolveSMT(500, cfg); err == nil {
		t.Fatal("expected infeasible")
	}
	if _, _, err := ctx.SolveSMT(500, cfg); err == nil {
		t.Fatal("expected memoized infeasible")
	}
	st := ctx.Stats()[RegionSMT]
	if st.Hits != 2 || st.Misses != 2 {
		t.Fatalf("smt stats = %+v, want 2 hits / 2 misses", st)
	}
}

func TestSliceKeyCanonicalOverOrder(t *testing.T) {
	a := SliceKey("sig", 2, 2, []int{5, 1, 9})
	b := SliceKey("sig", 2, 2, []int{9, 5, 1})
	if a != b {
		t.Fatal("slice key should not depend on active-vertex order")
	}
	if SliceKey("sig", 2, 2, []int{5, 1}) == a {
		t.Fatal("different vertex sets must not collide")
	}
	if SliceKey("sig", 1, 2, []int{5, 1, 9}) == a {
		t.Fatal("different distances must not collide")
	}
	if SliceKey("other", 2, 2, []int{5, 1, 9}) == a {
		t.Fatal("different systems must not collide")
	}
}
