package compile

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"fastsc/internal/circuit"
	"fastsc/internal/graph"
	"fastsc/internal/mapping"
	"fastsc/internal/topology"
)

// TestSnapshotRouteCircRoundTrip pins the v6 tentpole: route and circ
// entries persist through the content-addressed circuit pool and restore
// as working cache entries — a warm process must route and analyze these
// circuits purely from cache.
func TestSnapshotRouteCircRoundTrip(t *testing.T) {
	build := func() *circuit.Circuit {
		c := circuit.New(9)
		c.H(0).CNOT(0, 8).CZ(3, 5).RZ(4, 0.75)
		return c
	}
	dev := topology.SquareGrid(9)
	ctx := NewContext(1)
	want, err := ctx.Route(build(), dev, mapping.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ana := ctx.Analysis(build())

	path := snapshotPath(t)
	if err := ctx.Cache.Save(path); err != nil {
		t.Fatal(err)
	}
	warm := NewCache(0)
	res, err := warm.LoadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded != "" || res.Restored == 0 {
		t.Fatalf("LoadSnapshot = %+v, want clean restore", res)
	}

	// The restored route entry must be a hit for the same request…
	warmCtx := &Context{Cache: warm}
	got, err := warmCtx.Route(build(), dev, mapping.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st := warm.StatsByRegion()[RegionRoute]; st.Hits != 1 || st.Misses != 0 {
		t.Fatalf("route region after restore: %+v, want a pure hit", st)
	}
	// …and byte-identical to the original routed result.
	if got.SwapCount != want.SwapCount ||
		got.Routed.Signature() != want.Routed.Signature() ||
		!reflect.DeepEqual(got.Inserted, want.Inserted) ||
		!reflect.DeepEqual(got.Final.LogToPhys, want.Final.LogToPhys) ||
		!reflect.DeepEqual(got.Final.PhysToLog, want.Final.PhysToLog) {
		t.Fatalf("restored route result differs:\ngot  %+v\nwant %+v", got, want)
	}

	// The circ entry restores as a re-derived analysis under the same key.
	gotAna := warmCtx.Analysis(build())
	if st := warm.StatsByRegion()[RegionCircuit]; st.Hits != 1 || st.Misses != 0 {
		t.Fatalf("circ region after restore: %+v, want a pure hit", st)
	}
	if gotAna.Sig != ana.Sig || gotAna.Depth() != ana.Depth() || gotAna.NumGates != ana.NumGates {
		t.Fatalf("restored analysis differs: got sig=%s depth=%d, want sig=%s depth=%d",
			gotAna.Sig, gotAna.Depth(), ana.Sig, ana.Depth())
	}
}

// TestSnapshotCircuitPoolDedupes: many route entries over one routed
// circuit must share a single canonical blob in the pool.
func TestSnapshotCircuitPoolDedupes(t *testing.T) {
	build := func() *circuit.Circuit {
		c := circuit.New(4)
		c.CZ(0, 1).CZ(2, 3)
		return c
	}
	dev := topology.SquareGrid(4)
	ctx := NewContext(1)
	// Same circuit, two option sets that route identically (no SWAPs
	// needed): two route keys, one routed-circuit content.
	if _, err := ctx.Route(build(), dev, mapping.Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.Route(build(), dev, mapping.Options{Router: mapping.RouterConfig{Algorithm: mapping.RouterLookahead}}); err != nil {
		t.Fatal(err)
	}
	path := snapshotPath(t)
	if err := ctx.Cache.Save(path); err != nil {
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
	if len(snap.Route) != 2 {
		t.Fatalf("want 2 route entries, got %d", len(snap.Route))
	}
	if len(snap.Circuits) != 1 {
		t.Fatalf("want 1 pooled circuit for 2 identical routed results, got %d", len(snap.Circuits))
	}
}

// TestSnapshotOversizeCircuitSkipped: a circuit whose canonical encoding
// exceeds the pool bound is dropped from the snapshot (entry and blob),
// not written.
func TestSnapshotOversizeCircuitSkipped(t *testing.T) {
	big := circuit.New(2)
	for i := 0; i < maxCanonicalCircuitBytes/10; i++ {
		big.H(i % 2)
	}
	if len(big.EncodeCanonical()) <= maxCanonicalCircuitBytes {
		t.Fatal("test circuit not big enough to exceed the pool bound")
	}
	pool := make(map[string][]byte)
	if poolCircuit(pool, big.Signature(), big) {
		t.Fatal("oversize circuit admitted into the pool")
	}
	if len(pool) != 0 {
		t.Fatal("pool grew despite rejection")
	}

	c := NewCache(0)
	c.Put(RegionCircuit, CircuitKey(big, big.Signature()), circuit.Analyze(big))
	path := snapshotPath(t)
	if err := c.Save(path); err != nil {
		t.Fatal(err)
	}
	warm := NewCache(0)
	if n, err := warm.Load(path); err != nil || n != 0 {
		t.Fatalf("oversize circ entry should be skipped: n=%d err=%v", n, err)
	}
}

// componentSolution mirrors the per-component slice value that binaries
// from before the whole-slice solver persisted; gob matches fields by
// name, so encoding it reproduces their SliceComp section.
type componentSolution struct {
	Coloring  graph.Coloring
	Deferred  []int
	NumColors int
	Counts    []int
}

// componentSnapshot is the snapshot layout written while the slice solver
// still split each slice into connected components: diskSnapshot plus a
// SliceComp section of per-component entries, keyed "v<N>|c|" + the rest
// of a slice key.
type componentSnapshot struct {
	Magic      string
	Version    int
	KeyVersion int
	SMT        map[string]persistedSMT
	Park       map[string][]float64
	Slice      map[string]SliceSolution
	SliceComp  map[string]componentSolution
	Static     []diskEntry
	Circuits   map[string][]byte
	Route      map[string]persistedRoute
	Circ       []string
}

func writeGob(tb testing.TB, path string, v any) {
	tb.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		tb.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		tb.Fatal(err)
	}
}

// AddComponentSection rewrites the plain snapshot at path in the
// component-carrying layout, with one component entry per whole-slice
// entry (the entry a single-component slice produced), and returns how
// many it added. It lives in this internal test file so that the external
// warm-start tests can build such a snapshot from a real compile.
func AddComponentSection(tb testing.TB, path string) int {
	tb.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	var snap componentSnapshot
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&snap); err != nil {
		tb.Fatal(err)
	}
	prefix := fmt.Sprintf("v%d|", snap.KeyVersion)
	snap.SliceComp = make(map[string]componentSolution, len(snap.Slice))
	for k, sol := range snap.Slice {
		snap.SliceComp[prefix+"c|"+strings.TrimPrefix(k, prefix)] = componentSolution{
			Coloring:  sol.Coloring,
			Deferred:  sol.Deferred,
			NumColors: sol.NumColors,
			Counts:    sol.Coloring.ColorCounts(),
		}
	}
	writeGob(tb, path, snap)
	return len(snap.SliceComp)
}

// TestSnapshotRoundTripComponentSolutions round-trips a whole-slice entry
// through a snapshot that also carries the per-component section older
// v6 binaries wrote. The load is clean, the whole-slice entry comes back
// unchanged, and the component entries are dropped: nothing reads them.
func TestSnapshotRoundTripComponentSolutions(t *testing.T) {
	c := NewCache(0)
	whole := SliceSolution{
		Coloring:  graph.Coloring{-1, 0, 1, 0},
		NumColors: 2,
		Assign:    []float64{6.4, 6.1},
		Delta:     0.25,
	}
	wholeKey := SliceKey("sig", 2, 2, []int{1, 2, 3})
	c.Put(RegionSlice, wholeKey, whole)

	path := snapshotPath(t)
	if err := c.Save(path); err != nil {
		t.Fatalf("Save: %v", err)
	}
	if n := AddComponentSection(t, path); n != 1 {
		t.Fatalf("added %d component entries, want 1", n)
	}
	fresh := NewCache(0)
	res, err := fresh.LoadSnapshot(path)
	if err != nil {
		t.Fatalf("LoadSnapshot: %v", err)
	}
	if res.Degraded != "" || res.Restored != 1 || fresh.Len() != 1 {
		t.Fatalf("LoadSnapshot = %+v with %d entries, want a clean load of the 1 whole-slice entry", res, fresh.Len())
	}
	if v, ok := fresh.Get(RegionSlice, wholeKey); !ok || !reflect.DeepEqual(v, whole) {
		t.Fatalf("whole-slice entry after round trip = %+v (ok=%v), want %+v", v, ok, whole)
	}
}

// makeV5Snapshot writes a snapshot the way a v5 binary would have: format
// and key version 5, versioned slice keys carrying the v5 prefix, a
// component entry beside the whole-slice one, and no v6 sections.
func makeV5Snapshot(t *testing.T, path string) (sliceKeyV6 string) {
	t.Helper()
	sliceKeyV6 = SliceKey("a1b2c3d4e5f60718", 2, 3, []int{1, 4, 9})
	writeGob(t, path, componentSnapshot{
		Magic:      snapshotMagic,
		Version:    5,
		KeyVersion: 5,
		SMT:        map[string]persistedSMT{"3|aa|bb|cc|dd": {Xs: []float64{6.1}, Delta: 0.2}},
		Park:       map[string][]float64{"sysSig": {5.0}},
		Slice: map[string]SliceSolution{
			strings.Replace(sliceKeyV6, "v6|", "v5|", 1): {Coloring: graph.Coloring{0}, NumColors: 1, Assign: []float64{6.2}, Delta: 0.3},
		},
		SliceComp: map[string]componentSolution{
			"v5|c|a1b2c3d4e5f60718|2|3|2,3": {Coloring: graph.Coloring{0}, NumColors: 1, Counts: []int{1}},
		},
	})
	return sliceKeyV6
}

// TestSnapshotMigratesV5 is the migration round-trip pinned by the
// acceptance criteria: a snapshot written at the previous
// SnapshotVersion/KeyVersion restores > 0 entries after the bump, with
// the versioned slice key re-keyed to the current generation so the memo
// actually hits it. The component entry is dropped: the slice solver no
// longer reads component keys.
func TestSnapshotMigratesV5(t *testing.T) {
	path := snapshotPath(t)
	sliceKeyV6 := makeV5Snapshot(t, path)
	c := NewCache(0)
	res, err := c.LoadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded != "" || res.Missing {
		t.Fatalf("v5 snapshot degraded: %+v", res)
	}
	if res.FromVersion != 5 {
		t.Fatalf("FromVersion = %d, want 5", res.FromVersion)
	}
	if res.Restored != 3 {
		t.Fatalf("Restored = %d, want the 3 non-component entries", res.Restored)
	}
	if res.Migrated != 1 {
		t.Fatalf("Migrated = %d, want the 1 versioned slice key", res.Migrated)
	}
	// The re-keyed entry must hit under the *current* key the memo builds.
	if _, ok := c.Get(RegionSlice, sliceKeyV6); !ok {
		t.Fatal("migrated slice entry does not hit under its v6 key")
	}
	if _, ok := c.Get(RegionSMT, "3|aa|bb|cc|dd"); !ok {
		t.Fatal("unversioned smt entry lost in migration")
	}
}

// TestSnapshotAncientVersionIsCold: a version with no registered migration
// path (v4 and older, or any unknown step) degrades to cold with the
// reason reported — never an error, never a partial guess.
func TestSnapshotAncientVersionIsCold(t *testing.T) {
	path := snapshotPath(t)
	writeDoctoredSnapshot(t, path, func(s *diskSnapshot) {
		s.Version = 4
		s.KeyVersion = 3
	})
	c := NewCache(0)
	res, err := c.LoadSnapshot(path)
	if err != nil || res.Restored != 0 || c.Len() != 0 {
		t.Fatalf("ancient snapshot: res=%+v err=%v len=%d, want cold", res, err, c.Len())
	}
	if res.Degraded != DegradedNoMigration {
		t.Fatalf("Degraded = %q, want %q", res.Degraded, DegradedNoMigration)
	}
}

// TestLoadResultDegradationReasons distinguishes cold-by-choice (missing
// file) from every cold-by-degradation flavor, which is what the
// fastscd_snapshot_degraded_total{reason=...} counter and the operators
// reading it rely on.
func TestLoadResultDegradationReasons(t *testing.T) {
	t.Run("missing", func(t *testing.T) {
		c := NewCache(0)
		res, err := c.LoadSnapshot(snapshotPath(t))
		if err != nil || !res.Missing || res.Degraded != "" {
			t.Fatalf("missing file: res=%+v err=%v, want Missing and not Degraded", res, err)
		}
	})
	t.Run("corrupt", func(t *testing.T) {
		path := snapshotPath(t)
		if err := os.WriteFile(path, []byte("not a snapshot"), 0o644); err != nil {
			t.Fatal(err)
		}
		c := NewCache(0)
		res, err := c.LoadSnapshot(path)
		if err != nil || res.Degraded != DegradedCorrupt {
			t.Fatalf("corrupt file: res=%+v err=%v, want Degraded=%q", res, err, DegradedCorrupt)
		}
	})
	t.Run("future-version", func(t *testing.T) {
		path := snapshotPath(t)
		writeDoctoredSnapshot(t, path, func(s *diskSnapshot) { s.Version = SnapshotVersion + 1 })
		c := NewCache(0)
		res, err := c.LoadSnapshot(path)
		if err != nil || res.Degraded != DegradedFutureVersion {
			t.Fatalf("future version: res=%+v err=%v, want Degraded=%q", res, err, DegradedFutureVersion)
		}
	})
	t.Run("key-skew", func(t *testing.T) {
		path := snapshotPath(t)
		writeDoctoredSnapshot(t, path, func(s *diskSnapshot) { s.KeyVersion = KeyVersion - 1 })
		c := NewCache(0)
		res, err := c.LoadSnapshot(path)
		if err != nil || res.Degraded != DegradedKeySkew {
			t.Fatalf("key skew: res=%+v err=%v, want Degraded=%q", res, err, DegradedKeySkew)
		}
	})
	t.Run("bad-magic", func(t *testing.T) {
		path := snapshotPath(t)
		writeDoctoredSnapshot(t, path, func(s *diskSnapshot) { s.Magic = "something-else" })
		c := NewCache(0)
		res, err := c.LoadSnapshot(path)
		if err != nil || res.Degraded != DegradedBadMagic {
			t.Fatalf("bad magic: res=%+v err=%v, want Degraded=%q", res, err, DegradedBadMagic)
		}
	})
}

// TestSnapshotTamperedPoolBlobDropped: a flipped bit in a pooled canonical
// blob must drop the blob and every entry referencing it — the re-sign
// check is what keeps the content-addressed store trustworthy.
func TestSnapshotTamperedPoolBlobDropped(t *testing.T) {
	build := func() *circuit.Circuit {
		c := circuit.New(4)
		c.CZ(0, 1).H(2).CZ(2, 3)
		return c
	}
	ctx := NewContext(1)
	if _, err := ctx.Route(build(), topology.SquareGrid(4), mapping.Options{}); err != nil {
		t.Fatal(err)
	}
	path := snapshotPath(t)
	if err := ctx.Cache.Save(path); err != nil {
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
	if len(snap.Circuits) == 0 || len(snap.Route) == 0 {
		t.Fatalf("expected pooled route content, got %d circuits / %d routes", len(snap.Circuits), len(snap.Route))
	}
	for sig, blob := range snap.Circuits {
		blob[len(blob)-1] ^= 0x40 // flip a theta bit: still decodes, wrong signature
		snap.Circuits[sig] = blob
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	warm := NewCache(0)
	res, err := warm.LoadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := warm.Get(RegionRoute, RouteKey(build(), DeviceSignature(topology.SquareGrid(4)), mapping.Options{})); ok {
		t.Fatal("route entry referencing a tampered blob was served")
	}
	_ = res
}
