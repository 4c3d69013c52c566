package compile

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"sync"
	"testing"

	"fastsc/internal/graph"
)

// warmSnapshot saves a small multi-region cache (park, slice, smt)
// to a fresh path and returns the path plus the keys it holds.
func warmSnapshot(t *testing.T) (path, parkKey, sliceKey string) {
	t.Helper()
	parkKey = "warm-sys-sig"
	sliceKey = SliceKey("00ff00ff00ff00ff", 2, 3, []int{0, 2})
	src := NewCache(0)
	src.Put(RegionParking, parkKey, []float64{5.1, 5.3})
	src.Put(RegionSlice, sliceKey, SliceSolution{Coloring: graph.Coloring{0}, NumColors: 1, Assign: []float64{6.4}, Delta: 0.2})
	src.Put(RegionSMT, "2|a|b|c|d", smtResult{xs: []float64{6.0, 6.4}, delta: 0.4})
	path = snapshotPath(t)
	if err := src.Save(path); err != nil {
		t.Fatal(err)
	}
	return path, parkKey, sliceKey
}

// TestWarmSetProbeOrderAndPromotion pins the tier contract: local shards
// first, then the warm set; a warm hit is promoted so the next lookup for
// the same key is a local hit; exactly one counter moves per lookup.
func TestWarmSetProbeOrderAndPromotion(t *testing.T) {
	path, parkKey, _ := warmSnapshot(t)
	c := NewCache(0)
	c.AttachWarmSet(OpenWarmSet(path))

	v, ok := c.Get(RegionParking, parkKey)
	if !ok {
		t.Fatal("warm-set entry not served")
	}
	if xs := v.([]float64); len(xs) != 2 || xs[0] != 5.1 {
		t.Fatalf("warm-set entry corrupted: %v", xs)
	}
	if st := c.StatsByRegion()[RegionParking]; st.WarmHits != 1 || st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("after warm hit: %+v, want exactly one WarmHit", st)
	}

	// Promotion: the same key now lives in the local shards.
	if _, ok := c.Get(RegionParking, parkKey); !ok {
		t.Fatal("promoted entry missing from local tier")
	}
	if st := c.StatsByRegion()[RegionParking]; st.Hits != 1 || st.WarmHits != 1 {
		t.Fatalf("after promotion: %+v, want one local hit and one warm hit", st)
	}

	// Absent keys still miss through both tiers.
	if _, ok := c.Get(RegionParking, "nowhere"); ok {
		t.Fatal("phantom hit")
	}
	if st := c.StatsByRegion()[RegionParking]; st.Misses != 1 {
		t.Fatalf("after full miss: %+v, want one miss", st)
	}
	if got := c.TotalStats().HitRate(); got != 2.0/3.0 {
		t.Fatalf("HitRate = %v, want 2/3 (warm hits count toward the rate)", got)
	}
}

// TestWarmSetDoTieredSkipsCompute: DoTiered must serve a warm entry
// without running compute, reporting TierWarm once and TierLocal after
// promotion.
func TestWarmSetDoTieredSkipsCompute(t *testing.T) {
	path, parkKey, _ := warmSnapshot(t)
	c := NewCache(0)
	c.AttachWarmSet(OpenWarmSet(path))
	computed := 0
	compute := func() (any, error) { computed++; return nil, nil }
	if _, tier, err := c.DoTiered(RegionParking, parkKey, compute); err != nil || tier != TierWarm {
		t.Fatalf("first lookup: tier=%v err=%v, want TierWarm", tier, err)
	}
	if _, tier, _ := c.DoTiered(RegionParking, parkKey, compute); tier != TierLocal {
		t.Fatalf("second lookup: tier=%v, want TierLocal after promotion", tier)
	}
	if computed != 0 {
		t.Fatalf("compute ran %d times for warm-served key", computed)
	}
}

// TestWarmSetRecorderAttribution: a request-scoped Recorder attributes a
// memo lookup served by the warm set as a WarmHit, not a local hit or a
// miss.
func TestWarmSetRecorderAttribution(t *testing.T) {
	path, parkKey, _ := warmSnapshot(t)
	c := NewCache(0)
	c.AttachWarmSet(OpenWarmSet(path))
	ctx := &Context{Cache: c, Record: NewRecorder()}
	if _, err := ctx.Parking(parkKey, func() ([]float64, error) {
		t.Fatal("compute ran for warm-served key")
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	if st := ctx.Record.StatsByRegion()[RegionParking]; st.WarmHits != 1 || st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("recorder after warm hit: %+v, want exactly one WarmHit", st)
	}
}

// TestWarmSetMissingAndCorrupt: a warm set backed by a missing or corrupt
// file serves misses forever and reports why — never an error on the
// lookup path.
func TestWarmSetMissingAndCorrupt(t *testing.T) {
	w := OpenWarmSet(snapshotPath(t))
	if _, ok := w.get(RegionParking, "k"); ok {
		t.Fatal("missing warm set served a hit")
	}
	res, err := w.Result()
	if err != nil || !res.Missing || res.Degraded != "" {
		t.Fatalf("missing warm set: res=%+v err=%v", res, err)
	}

	path := snapshotPath(t)
	if err := os.WriteFile(path, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	w = OpenWarmSet(path)
	if w.Len() != 0 {
		t.Fatal("corrupt warm set holds entries")
	}
	res, err = w.Result()
	if err != nil || res.Degraded != DegradedCorrupt {
		t.Fatalf("corrupt warm set: res=%+v err=%v, want Degraded=%q", res, err, DegradedCorrupt)
	}

	// A nil warm set (and a cache without one) also just misses.
	var nilSet *WarmSet
	if _, ok := nilSet.get(RegionParking, "k"); ok {
		t.Fatal("nil warm set served a hit")
	}
	if nilSet.Len() != 0 || nilSet.Path() != "" {
		t.Fatal("nil warm set not inert")
	}
}

// TestWarmSetPreviousVersionMigrates: a warm set built by the previous
// release (snapshot v5, KeyVersion 5) goes through the same migration walk
// as a local snapshot, so its re-keyed slice entries serve under current
// keys.
func TestWarmSetPreviousVersionMigrates(t *testing.T) {
	path := snapshotPath(t)
	sliceKeyV6 := makeV5Snapshot(t, path)
	w := OpenWarmSet(path)
	res, err := w.Result()
	if err != nil || res.Degraded != "" {
		t.Fatalf("v5 warm set degraded: res=%+v err=%v", res, err)
	}
	if res.Migrated == 0 || res.FromVersion != 5 || res.Restored == 0 {
		t.Fatalf("v5 warm set: %+v, want migrated restore from version 5", res)
	}
	c := NewCache(0)
	c.AttachWarmSet(w)
	if _, ok := c.Get(RegionSlice, sliceKeyV6); !ok {
		t.Fatal("migrated warm-set entry does not hit under its v6 key")
	}
	if st := c.StatsByRegion()[RegionSlice]; st.WarmHits != 1 {
		t.Fatalf("migrated entry not attributed to the warm tier: %+v", st)
	}
}

// TestWarmSetReadOnlyUnderContention hammers one warm-backed cache from
// 8×GOMAXPROCS goroutines mixing warm-served keys, novel computes and raw
// Gets. Under -race this demonstrates the warm tier is genuinely read-only
// concurrent state (the immutable maps are read lock-free by every
// goroutine, including the racing lazy load); the byte comparison
// afterwards demonstrates nothing ever writes the backing file.
func TestWarmSetReadOnlyUnderContention(t *testing.T) {
	path, parkKey, sliceKey := warmSnapshot(t)
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCache(0)
	c.AttachWarmSet(OpenWarmSet(path))

	workers := 8 * runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				switch i % 4 {
				case 0:
					if _, ok := c.Get(RegionParking, parkKey); !ok {
						t.Error("warm park entry lost under contention")
						return
					}
				case 1:
					if _, ok := c.Get(RegionSlice, sliceKey); !ok {
						t.Error("warm slice entry lost under contention")
						return
					}
				case 2:
					key := fmt.Sprintf("novel-%d-%d", g, i)
					if _, _, err := c.DoTiered(RegionSMT, key, func() (any, error) {
						return smtResult{delta: float64(i)}, nil
					}); err != nil {
						t.Error(err)
						return
					}
				default:
					c.Get(RegionSMT, "absent-everywhere")
				}
			}
		}(g)
	}
	wg.Wait()

	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("warm-set file bytes changed under contention: tier is not read-only")
	}
	st := c.TotalStats()
	if st.WarmHits == 0 {
		t.Fatalf("contention run recorded no warm hits: %+v", st)
	}
}

// TestWarmSetDetach: attaching nil detaches the tier; lookups fall back to
// two-tier behavior.
func TestWarmSetDetach(t *testing.T) {
	path, parkKey, _ := warmSnapshot(t)
	c := NewCache(0)
	c.AttachWarmSet(OpenWarmSet(path))
	c.AttachWarmSet(nil)
	if c.WarmSet() != nil {
		t.Fatal("warm set still attached")
	}
	if _, ok := c.Get(RegionParking, parkKey); ok {
		t.Fatal("detached warm set still served")
	}
}
