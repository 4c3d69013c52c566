package compile

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"fastsc/internal/faultpoint"
	"fastsc/internal/graph"
	"fastsc/internal/smt"
)

// testPalette is a whole-device static palette in the shape schedule
// stores in the static region: a full coloring, no deferred vertices.
var testPalette = SliceSolution{
	Coloring:  graph.Coloring{0, 1, 0},
	NumColors: 2,
	Assign:    []float64{6.3, 6.6},
	Delta:     0.1,
}

func snapshotPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "cache.snap")
}

func TestSnapshotRoundTrip(t *testing.T) {
	c := NewCache(0)
	infeasible := &persistedErr{msg: "smt: no feasible frequency assignment: 9 colors", base: smt.ErrInfeasible}
	c.Put(RegionSMT, "ok", smtResult{xs: []float64{6.1, 6.4}, delta: 0.25})
	c.Put(RegionSMT, "bad", smtResult{err: infeasible})
	c.Put(RegionParking, "sys1", []float64{5.1, 5.2})
	c.Put(RegionStatic, "sys1", testPalette)
	c.Put(RegionSlice, "sig|2|2|1,1", SliceSolution{
		Coloring:  graph.Coloring{-1, -1, -1, 0, -1, -1, -1, 1},
		Deferred:  []int{9},
		NumColors: 2,
		Assign:    []float64{6.2, 6.6},
		Delta:     0.3,
	})
	c.Put(RegionXtalk, "dev|2", "not persisted")

	path := snapshotPath(t)
	if err := c.Save(path); err != nil {
		t.Fatal(err)
	}
	warm := NewCache(0)
	n, err := warm.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("restored %d entries, want 5", n)
	}

	v, ok := warm.Get(RegionSMT, "ok")
	if !ok {
		t.Fatal("smt entry missing after round trip")
	}
	if r := v.(smtResult); !reflect.DeepEqual(r.xs, []float64{6.1, 6.4}) || r.delta != 0.25 || r.err != nil {
		t.Fatalf("smt entry corrupted: %+v", r)
	}
	v, ok = warm.Get(RegionSMT, "bad")
	if !ok {
		t.Fatal("infeasibility verdict missing after round trip")
	}
	if r := v.(smtResult); r.err == nil || !errors.Is(r.err, smt.ErrInfeasible) || r.err.Error() != infeasible.Error() {
		t.Fatalf("infeasibility verdict lost identity or message: %v", r.err)
	}
	if v, ok := warm.Get(RegionParking, "sys1"); !ok || !reflect.DeepEqual(v, []float64{5.1, 5.2}) {
		t.Fatalf("parking entry corrupted: %v (%v)", v, ok)
	}
	if v, ok := warm.Get(RegionStatic, "sys1"); !ok || !reflect.DeepEqual(v, testPalette) {
		t.Fatalf("static entry corrupted: %v (%v)", v, ok)
	}
	v, ok = warm.Get(RegionSlice, "sig|2|2|1,1")
	if !ok {
		t.Fatal("slice entry missing after round trip")
	}
	sol := v.(SliceSolution)
	if !reflect.DeepEqual(sol.Coloring, graph.Coloring{-1, -1, -1, 0, -1, -1, -1, 1}) || sol.NumColors != 2 ||
		!reflect.DeepEqual(sol.Assign, []float64{6.2, 6.6}) || sol.Delta != 0.3 ||
		!reflect.DeepEqual(sol.Deferred, []int{9}) {
		t.Fatalf("slice entry corrupted: %+v", sol)
	}
	if _, ok := warm.Get(RegionXtalk, "dev|2"); ok {
		t.Fatal("xtalk region must not be persisted")
	}
}

// TestSnapshotGzipRoundTrip checks the compressed snapshot path: a ".gz"
// path writes a genuinely gzip-compressed stream, Load restores it by
// sniffing the magic bytes (not the name), and a truncated compressed
// snapshot degrades to a cold cache like any other corruption.
func TestSnapshotGzipRoundTrip(t *testing.T) {
	c := NewCache(0)
	c.Put(RegionSMT, "ok", smtResult{xs: []float64{6.1, 6.4}, delta: 0.25})
	c.Put(RegionParking, "sys1", []float64{5.1, 5.2})
	c.Put(RegionSlice, "sig|2|2|1,1", SliceSolution{
		Coloring:  graph.Coloring{0, 1},
		NumColors: 2,
		Assign:    []float64{6.2, 6.6},
		Delta:     0.3,
	})

	dir := t.TempDir()
	gzPath := filepath.Join(dir, "cache.snap.gz")
	plainPath := filepath.Join(dir, "cache.snap")
	if err := c.Save(gzPath); err != nil {
		t.Fatal(err)
	}
	if err := c.Save(plainPath); err != nil {
		t.Fatal(err)
	}
	gzData, err := os.ReadFile(gzPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(gzData) < 2 || gzData[0] != 0x1f || gzData[1] != 0x8b {
		t.Fatal("gz snapshot does not start with the gzip magic")
	}
	plainData, err := os.ReadFile(plainPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(gzData) >= len(plainData) {
		t.Fatalf("compressed snapshot (%d B) not smaller than plain (%d B)", len(gzData), len(plainData))
	}

	warm := NewCache(0)
	if n, err := warm.Load(gzPath); err != nil || n != 3 {
		t.Fatalf("compressed load: n=%d err=%v, want 3 entries", n, err)
	}
	if v, ok := warm.Get(RegionParking, "sys1"); !ok || !reflect.DeepEqual(v, []float64{5.1, 5.2}) {
		t.Fatalf("parking entry corrupted after compressed round trip: %v (%v)", v, ok)
	}

	// Auto-detection is content-based: the compressed stream loads from a
	// name without the suffix too.
	renamed := filepath.Join(dir, "renamed.snap")
	if err := os.Rename(gzPath, renamed); err != nil {
		t.Fatal(err)
	}
	warm2 := NewCache(0)
	if n, err := warm2.Load(renamed); err != nil || n != 3 {
		t.Fatalf("renamed compressed load: n=%d err=%v, want 3 entries", n, err)
	}

	// Truncation corrupts the gzip stream: cold start, no error.
	trunc := filepath.Join(dir, "trunc.snap.gz")
	if err := os.WriteFile(trunc, gzData[:len(gzData)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	cold := NewCache(0)
	if n, err := cold.Load(trunc); n != 0 || err != nil || cold.Len() != 0 {
		t.Fatalf("truncated compressed snapshot: n=%d err=%v len=%d, want cold start", n, err, cold.Len())
	}
}

func TestSnapshotLoadMissingFileIsCold(t *testing.T) {
	c := NewCache(0)
	n, err := c.Load(filepath.Join(t.TempDir(), "nope.snap"))
	if n != 0 || err != nil {
		t.Fatalf("missing snapshot: n=%d err=%v, want cold start", n, err)
	}
}

func TestSnapshotLoadCorruptIsCold(t *testing.T) {
	path := snapshotPath(t)
	if err := os.WriteFile(path, []byte("definitely not a gob stream"), 0o644); err != nil {
		t.Fatal(err)
	}
	c := NewCache(0)
	n, err := c.Load(path)
	if n != 0 || err != nil || c.Len() != 0 {
		t.Fatalf("corrupt snapshot: n=%d err=%v len=%d, want cold start", n, err, c.Len())
	}
	// The cache must stay fully usable after a failed load.
	c.Put("r", "k", 1)
	if v, ok := c.Get("r", "k"); !ok || v.(int) != 1 {
		t.Fatal("cache unusable after corrupt load")
	}
}

// writeDoctoredSnapshot saves a valid one-entry snapshot, then rewrites
// its header through mutate and writes it back.
func writeDoctoredSnapshot(t *testing.T, path string, mutate func(*diskSnapshot)) {
	t.Helper()
	c := NewCache(0)
	c.Put(RegionParking, "sys", []float64{5.0})
	if err := c.Save(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap diskSnapshot
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	mutate(&snap)
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotVersionMismatchIsCold(t *testing.T) {
	cases := map[string]func(*diskSnapshot){
		"format-version": func(s *diskSnapshot) { s.Version = SnapshotVersion + 1 },
		"magic":          func(s *diskSnapshot) { s.Magic = "something-else" },
	}
	for name, mutate := range cases {
		t.Run(name, func(t *testing.T) {
			path := snapshotPath(t)
			writeDoctoredSnapshot(t, path, mutate)
			c := NewCache(0)
			if n, err := c.Load(path); n != 0 || err != nil || c.Len() != 0 {
				t.Fatalf("mismatched snapshot: n=%d err=%v len=%d, want cold start", n, err, c.Len())
			}
		})
	}
}

// TestSaveFaultpointError: the snapshot.save.err fault point makes Save
// fail with an injected error the caller can identify, leaving no partial
// file behind.
func TestSaveFaultpointError(t *testing.T) {
	defer faultpoint.Reset()
	faultpoint.Reset()
	if err := faultpoint.Arm(faultpoint.SnapshotSaveErr + "*1"); err != nil {
		t.Fatal(err)
	}
	c := NewCache(0)
	c.Put(RegionParking, "sys", []float64{5.0})
	path := snapshotPath(t)
	if err := c.Save(path); !errors.Is(err, faultpoint.ErrInjected) {
		t.Fatalf("Save = %v, want injected error", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("snapshot file exists after injected save failure")
	}
	// The point is consumed: the next Save succeeds.
	if err := c.Save(path); err != nil {
		t.Fatal(err)
	}
}

// TestSaveFaultpointCorrupt: the snapshot.save.corrupt fault point writes
// flipped bytes; Load must honor the degrade-to-empty contract (cold
// cache, nil error) instead of failing compilation.
func TestSaveFaultpointCorrupt(t *testing.T) {
	defer faultpoint.Reset()
	faultpoint.Reset()
	if err := faultpoint.Arm(faultpoint.SnapshotSaveCorrupt + "*1"); err != nil {
		t.Fatal(err)
	}
	c := NewCache(0)
	c.Put(RegionParking, "sys", []float64{5.0})
	path := snapshotPath(t)
	if err := c.Save(path); err != nil {
		t.Fatal(err)
	}
	warm := NewCache(0)
	n, err := warm.Load(path)
	if err != nil {
		t.Fatalf("Load of corrupt snapshot = %v, want nil (degrade to cold)", err)
	}
	if n != 0 {
		t.Fatalf("restored %d entries from corrupt snapshot, want 0", n)
	}
}

// TestSaveConcurrentSamePath: concurrent Saves to one path all succeed,
// and leave one snapshot that loads clean with every entry and no temp
// file beside it.
func TestSaveConcurrentSamePath(t *testing.T) {
	const entries, goroutines, rounds = 16, 4, 20
	c := NewCache(0)
	for i := 0; i < entries; i++ {
		c.Put(RegionParking, fmt.Sprintf("sys%d", i), []float64{5.0 + float64(i)/10})
	}
	path := snapshotPath(t)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if err := c.Save(path); err != nil {
					t.Errorf("Save: %v", err)
				}
			}
		}()
	}
	wg.Wait()
	res, err := NewCache(0).LoadSnapshot(path)
	if err != nil || res.Degraded != "" || res.Restored != entries {
		t.Fatalf("LoadSnapshot = %+v, %v; want a clean load of %d entries", res, err, entries)
	}
	if fi, err := os.Stat(path); err != nil || fi.Mode().Perm() != 0o644 {
		t.Fatalf("snapshot mode: %v, %v; want 0644", fi.Mode(), err)
	}
	dir, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(dir) != 1 {
		names := make([]string, len(dir))
		for i, e := range dir {
			names[i] = e.Name()
		}
		t.Fatalf("directory holds %v, want only the snapshot", names)
	}
}

// FuzzDecodeSnapshot feeds arbitrary bytes to the snapshot decoder. It
// must never panic: either it degrades with one of the three reasons, or
// it returns a snapshot at the current version that LoadSnapshot
// restores with a nil error. Run it with `make fuzz`.
func FuzzDecodeSnapshot(f *testing.F) {
	c := NewCache(0)
	c.Put(RegionSMT, "ok", smtResult{xs: []float64{6.1, 6.4}, delta: 0.25})
	c.Put(RegionSMT, "bad", smtResult{err: &persistedErr{msg: "infeasible", base: smt.ErrInfeasible}})
	c.Put(RegionParking, "sys1", []float64{5.1, 5.2})
	c.Put(RegionStatic, "sys1", testPalette)
	c.Put(RegionSlice, SliceKey("sig", 2, 2, []int{1, 2}), SliceSolution{
		Coloring: graph.Coloring{0, 1}, NumColors: 2, Assign: []float64{6.2, 6.6}, Delta: 0.3,
	})
	dir := f.TempDir()
	for _, name := range []string{"seed.snap", "seed.snap.gz"} {
		path := filepath.Join(dir, name)
		if err := c.Save(path); err != nil {
			f.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(data[:len(data)/2])
	}
	f.Add([]byte("definitely not a snapshot"))
	f.Add([]byte{0x1f, 0x8b, 0x08})
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, reason := decodeSnapshot(data)
		if snap == nil {
			switch reason {
			case DegradedCorrupt, DegradedBadMagic, DegradedVersionSkew:
			default:
				t.Fatalf("nil snapshot with reason %q", reason)
			}
			return
		}
		if reason != "" || snap.Version != SnapshotVersion {
			t.Fatalf("decoded version %d with reason %q", snap.Version, reason)
		}
		path := filepath.Join(t.TempDir(), "fuzz.snap")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if res, err := NewCache(0).LoadSnapshot(path); err != nil || res.Degraded != "" {
			t.Fatalf("LoadSnapshot of a decodable snapshot = %+v, %v", res, err)
		}
	})
}
