package compile

import (
	"fmt"
	"testing"
)

// BenchmarkCacheContention measures the hot-path cost of the cache under
// concurrent access at increasing shard counts. shards=1 is exactly the
// pre-v2 single-mutex cache (one shard, one lock, one LRU list), so the
// shards=1 vs shards=N sub-benchmarks quantify the sharding win. The
// workload is the engine's: read-mostly lookups over a recurring working
// set with occasional inserts, from many goroutines (SetParallelism(8)
// runs 8×GOMAXPROCS goroutines, covering the "8+ goroutines" regime even
// on small CI hosts).
func BenchmarkCacheContention(b *testing.B) {
	const workingSet = 4096
	keys := make([]string, workingSet)
	for i := range keys {
		keys[i] = fmt.Sprintf("v2|sig|2|2|%x", i)
	}
	shardCounts := []int{1, 8, defaultShardCount()}
	if shardCounts[2] <= 8 {
		shardCounts = shardCounts[:2]
	}
	for _, shards := range shardCounts {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			c := NewCacheSharded(2*workingSet, shards)
			for i, k := range keys {
				c.Put(RegionSlice, k, i)
			}
			b.SetParallelism(8)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					i++
					k := keys[(i*31)%workingSet]
					if i%64 == 0 {
						c.Put(RegionSlice, k, i)
						continue
					}
					if _, ok := c.Get(RegionSlice, k); !ok {
						b.Error("prefilled key missed")
						return
					}
				}
			})
		})
	}
}

// BenchmarkCacheDoSingleFlight measures Do's fast path (hits through the
// single-flight guard) — the cost every memoized solver lookup pays.
func BenchmarkCacheDoSingleFlight(b *testing.B) {
	c := NewCache(1024)
	c.Put(RegionSlice, "k", 1)
	b.SetParallelism(8)
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, _, err := c.Do(RegionSlice, "k", func() (any, error) { return 1, nil }); err != nil {
				b.Error(err)
				return
			}
		}
	})
}
