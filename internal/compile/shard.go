package compile

import (
	"container/list"
	"runtime"
	"sync"
)

// maxShards bounds the shard count. 64 shards keep the per-shard maps
// dense at the default capacity while covering every host the batch
// engine realistically runs on.
const maxShards = 64

// defaultShardCount picks the smallest power of two >= GOMAXPROCS,
// clamped to [1, maxShards]: one shard per runnable worker removes the
// global lock from the hot path without fragmenting the LRU into
// uselessly small pieces.
func defaultShardCount() int {
	n := runtime.GOMAXPROCS(0)
	s := 1
	for s < n && s < maxShards {
		s <<= 1
	}
	return s
}

// cacheShard is one independently locked slice of the cache: its own LRU
// list, entry map and per-region counters. A shard owns every key whose
// hash lands in it, so all ordering and accounting for that key is
// single-shard and needs only the shard mutex.
type cacheShard struct {
	mu    sync.Mutex // guards every field below
	cap   int        // capacity in cost units (see entryCost)
	used  int        // total cost of resident entries
	ll    *list.List // front = most recently used
	items map[string]*list.Element
	stats map[string]*Stats
}

type cacheEntry struct {
	key    string // namespaced: region + "\x00" + key
	region string
	value  any
	cost   int // capacity units (entryCost at insertion)
}

func newCacheShard(capacity int) *cacheShard {
	return &cacheShard{
		cap:   capacity,
		ll:    list.New(),
		items: make(map[string]*list.Element),
		stats: make(map[string]*Stats),
	}
}

func (s *cacheShard) regionStats(region string) *Stats {
	st, ok := s.stats[region]
	if !ok {
		st = &Stats{}
		s.stats[region] = st
	}
	return st
}

// get looks up nk, promoting it on a hit. It leaves the counters alone:
// the Cache counts each lookup once it knows which tier served it.
func (s *cacheShard) get(nk string) (any, bool) {
	el, ok := s.items[nk]
	if !ok {
		return nil, false
	}
	s.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).value, true
}

// count locks the shard and adds one lookup served by tier to region's
// counters: a local hit or a miss (warm hits are counted where they are
// promoted).
func (s *cacheShard) count(region string, tier Tier) {
	s.mu.Lock()
	if tier == TierMiss {
		s.regionStats(region).Misses++
	} else {
		s.regionStats(region).Hits++
	}
	s.mu.Unlock()
}

func (s *cacheShard) put(region, nk string, value any) {
	cost := entryCost(value)
	if el, ok := s.items[nk]; ok {
		ent := el.Value.(*cacheEntry)
		s.used += cost - ent.cost
		ent.value, ent.cost = value, cost
		s.ll.MoveToFront(el)
		s.evict()
		return
	}
	s.items[nk] = s.ll.PushFront(&cacheEntry{key: nk, region: region, value: value, cost: cost})
	s.used += cost
	s.evict()
}

// evict removes least-recently-used entries until the shard's cost fits its
// capacity. The most recent entry is never evicted, so one entry larger
// than the whole shard still caches (it just keeps the shard to itself).
func (s *cacheShard) evict() {
	for s.used > s.cap && s.ll.Len() > 1 {
		oldest := s.ll.Back()
		ent := oldest.Value.(*cacheEntry)
		s.ll.Remove(oldest)
		delete(s.items, ent.key)
		s.used -= ent.cost
		s.regionStats(ent.region).Evictions++
	}
}
