package compile

import "sync/atomic"

// DefaultCacheCapacity is the capacity (in cost units, see entryCost) used
// when NewCache is given a non-positive capacity. One unit covers a small
// entry — a slice solution or SMT solve of a few hundred bytes — so
// thousands of entries cost single-digit megabytes; bulky values
// (crosstalk graphs, whole-device palettes) report their approximate byte
// size and occupy proportionally many units, so eviction under pressure
// sheds them at their real weight.
const DefaultCacheCapacity = 8192

// Stats are the per-tier hit/miss/eviction counters of one cache region.
// Hits counts lookups served by the in-process shards (tier 1), including
// those served by another caller's in-flight computation; WarmHits counts
// lookups that missed locally but were served by the attached read-only
// warm set (tier 3) and promoted; Misses counts lookups that ran their
// compute function (or shared a failed one, which served no value), and
// Get calls that found nothing. The counters agree with the tiers
// DoTiered reports, so they match what a Recorder counts.
type Stats struct {
	Hits, Misses, Evictions uint64
	WarmHits                uint64
}

// HitRate returns (hits + warm hits) / (hits + warm hits + misses), or 0
// when the region is unused: a warm-set hit spared the compute exactly like
// a local hit, so it counts toward the rate.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.WarmHits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits+s.WarmHits) / float64(total)
}

// add accumulates counters (used to aggregate regions and shards).
func (s Stats) add(o Stats) Stats {
	return Stats{
		Hits:      s.Hits + o.Hits,
		Misses:    s.Misses + o.Misses,
		Evictions: s.Evictions + o.Evictions,
		WarmHits:  s.WarmHits + o.WarmHits,
	}
}

// Tier identifies which store satisfied a tiered lookup.
type Tier uint8

const (
	// TierMiss: no tier had the entry; the caller's compute ran.
	TierMiss Tier = iota
	// TierLocal: served by the in-process shards (or by sharing another
	// caller's in-flight computation through the single-flight group).
	TierLocal
	// TierWarm: served by the attached read-only warm set after a local
	// miss, and promoted into the local shards.
	TierWarm
)

// Cache is a concurrency-safe sharded LRU cache shared across compilation
// jobs. Entries are namespaced by region (e.g. "smt", "slice", "xtalk") so
// that hit/miss accounting can be reported per pipeline stage.
//
// Keys are hashed onto a power-of-two number of independently locked
// shards, each with its own LRU list, so concurrent lookups from a large
// worker pool do not serialize on one mutex. LRU ordering and the capacity
// bound therefore hold per shard, not globally: an eviction removes the
// least-recently-used entry of the full shard, which is only
// approximately the globally least-recently-used entry. Use shards=1
// (NewCacheSharded) when exact global LRU order matters.
//
// Do deduplicates concurrent misses on the same key through a
// single-flight group: one caller computes, everyone else blocks and
// shares the result.
//
// Values stored in the cache are shared between goroutines and MUST be
// treated as immutable by every consumer.
type Cache struct {
	shards []*cacheShard
	mask   uint64
	flight flightGroup
	// warm is the optional read-only warm set (tier 3), probed after a
	// local miss and before compute. Stored atomically so AttachWarmSet is
	// safe against concurrent lookups; the WarmSet itself is immutable
	// after its lazy load.
	warm atomic.Pointer[WarmSet]
}

// NewCache returns a cache holding at most ~capacity cost units (~entries,
// for small values), sharded for the current GOMAXPROCS. capacity <= 0
// selects DefaultCacheCapacity.
func NewCache(capacity int) *Cache {
	return NewCacheSharded(capacity, 0)
}

// NewCacheSharded returns a cache with an explicit shard count, which is
// rounded up to a power of two, clamped to [1, maxShards], then halved
// until it does not exceed capacity. shards <= 0 selects the
// GOMAXPROCS-derived default. Capacity is split evenly across shards
// (rounding up), so the effective total capacity is
// shards * ceil(capacity/shards).
func NewCacheSharded(capacity, shards int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCacheCapacity
	}
	if shards <= 0 {
		shards = defaultShardCount()
	}
	n := 1
	for n < shards && n < maxShards {
		n <<= 1
	}
	for n > capacity {
		n >>= 1
	}
	perShard := (capacity + n - 1) / n
	c := &Cache{shards: make([]*cacheShard, n), mask: uint64(n - 1)}
	for i := range c.shards {
		c.shards[i] = newCacheShard(perShard)
	}
	return c
}

func namespaced(region, key string) string { return region + "\x00" + key }

// shardFor hashes a namespaced key onto its shard (FNV-64a).
func (c *Cache) shardFor(nk string) *cacheShard {
	h := uint64(14695981039346656037)
	for i := 0; i < len(nk); i++ {
		h ^= uint64(nk[i])
		h *= 1099511628211
	}
	return c.shards[h&c.mask]
}

// NumShards returns the shard count (useful for tests and benchmarks).
func (c *Cache) NumShards() int {
	if c == nil {
		return 0
	}
	return len(c.shards)
}

// AttachWarmSet attaches a read-only warm set as the cache's third tier:
// lookups that miss the local shards probe it before computing, and warm
// hits are promoted into the local shards (and counted as Stats.WarmHits).
// The warm set is never written. Attaching nil detaches. No-op on a nil
// cache.
func (c *Cache) AttachWarmSet(w *WarmSet) {
	if c == nil {
		return
	}
	c.warm.Store(w)
}

// WarmSet returns the attached warm set, or nil.
func (c *Cache) WarmSet() *WarmSet {
	if c == nil {
		return nil
	}
	return c.warm.Load()
}

// Get looks up key through the tiers (local shards, then the attached
// warm set), promoting it to most-recently-used — and, on a warm hit, into
// the local shards — on a hit. Nil caches always miss without accounting.
func (c *Cache) Get(region, key string) (any, bool) {
	if c == nil {
		return nil, false
	}
	v, tier, s := c.getTiered(region, key)
	if tier == TierMiss {
		s.count(region, TierMiss)
	}
	return v, tier != TierMiss
}

// getTiered is the lookup behind Get and DoTiered: local shards first
// (tier hit), then the warm set (warm hit, promoted), else a miss. It
// counts the two hit tiers and returns the key's shard, on which the
// caller counts a miss: only the caller knows whether its compute ran.
func (c *Cache) getTiered(region, key string) (any, Tier, *cacheShard) {
	nk := namespaced(region, key)
	s := c.shardFor(nk)
	s.mu.Lock()
	if v, ok := s.get(nk); ok {
		s.regionStats(region).Hits++
		s.mu.Unlock()
		return v, TierLocal, s
	}
	s.mu.Unlock()
	// Local miss: probe the warm set outside the shard lock — warm reads
	// are lock-free (the set is immutable after load), so a slow lazy load
	// or a large warm lookup never blocks the shard.
	if w := c.warm.Load(); w != nil {
		if v, ok := w.get(region, key); ok {
			s.mu.Lock()
			s.regionStats(region).WarmHits++
			s.put(region, nk, v)
			s.mu.Unlock()
			return v, TierWarm, s
		}
	}
	return nil, TierMiss, s
}

// peek is a local lookup without accounting, used by the single-flight
// re-check (whose caller counts the lookup once the flight returns).
func (c *Cache) peek(region, key string) (any, bool) {
	nk := namespaced(region, key)
	s := c.shardFor(nk)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.get(nk)
}

// Put stores value under (region, key), evicting the least-recently-used
// entry of the key's shard when that shard is full. Storing an existing
// key refreshes its value and recency. Put on a nil cache is a no-op.
func (c *Cache) Put(region, key string, value any) {
	if c == nil {
		return
	}
	nk := namespaced(region, key)
	s := c.shardFor(nk)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.put(region, nk, value)
}

// Do returns the cached value for (region, key), computing and storing it
// on a miss. Concurrent misses on the same key are deduplicated through a
// single-flight group: exactly one caller runs compute while the others
// block and share its result (including its error). Errors are shared
// with in-flight waiters but never cached — the next caller after a
// failed flight computes afresh; use a value type that embeds the error
// (as the SMT memo does) when negative caching is wanted.
func (c *Cache) Do(region, key string, compute func() (any, error)) (any, error) {
	v, _, err := c.DoTiered(region, key, compute)
	return v, err
}

// DoTiered is Do with tier attribution: it additionally reports which tier
// satisfied the lookup — TierLocal for a shard hit (or for sharing another
// caller's in-flight computation), TierWarm for a warm-set hit, TierMiss
// when this caller's compute ran or the flight it shared failed. The
// cache's own counters record the same tier. Request-scoped Recorders use
// the tier to attribute warm-set traffic separately from local hits.
func (c *Cache) DoTiered(region, key string, compute func() (any, error)) (any, Tier, error) {
	if c == nil {
		v, err := compute()
		return v, TierMiss, err
	}
	v, tier, s := c.getTiered(region, key)
	if tier != TierMiss {
		return v, tier, nil
	}
	computed := false
	v, err := c.flight.do(namespaced(region, key), func() (any, error) {
		// Re-check: a previous flight may have stored the value between
		// this caller's miss and its turn as leader. Without this, a
		// caller overlapping the tail of a finished flight would compute
		// a second time.
		if v, ok := c.peek(region, key); ok {
			return v, nil
		}
		computed = true
		v, err := compute()
		if err != nil {
			return nil, err
		}
		c.Put(region, key, v)
		return v, nil
	})
	tier = TierLocal
	if computed || err != nil {
		tier = TierMiss
	}
	s.count(region, tier)
	if err != nil {
		return nil, TierMiss, err
	}
	return v, tier, nil
}

// Len returns the current number of entries across all shards.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	n := 0
	for _, s := range c.shards {
		s.mu.Lock()
		n += s.ll.Len()
		s.mu.Unlock()
	}
	return n
}

// StatsByRegion returns the per-region counters aggregated across shards.
func (c *Cache) StatsByRegion() map[string]Stats {
	if c == nil {
		return nil
	}
	out := make(map[string]Stats)
	for _, s := range c.shards {
		s.mu.Lock()
		for r, st := range s.stats {
			out[r] = out[r].add(*st)
		}
		s.mu.Unlock()
	}
	return out
}

// TotalStats aggregates the counters across all regions.
func (c *Cache) TotalStats() Stats {
	var total Stats
	for _, s := range c.StatsByRegion() {
		total = total.add(s)
	}
	return total
}

// regionEntries returns a copy of one region's (bare key -> value) map,
// used by the snapshot writer. Values are the shared immutable cache
// values; callers must not mutate them.
func (c *Cache) regionEntries(region string) map[string]any {
	if c == nil {
		return nil
	}
	prefix := namespaced(region, "")
	out := make(map[string]any)
	for _, s := range c.shards {
		s.mu.Lock()
		for nk, el := range s.items {
			ent := el.Value.(*cacheEntry)
			if ent.region == region {
				out[nk[len(prefix):]] = ent.value
			}
		}
		s.mu.Unlock()
	}
	return out
}
