package compile

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"fastsc/internal/graph"
)

// componentSolution mirrors the per-component slice value that binaries
// from before the whole-slice solver persisted; gob matches fields by
// name, so encoding it reproduces their SliceComp section.
type componentSolution struct {
	Coloring  graph.Coloring
	Deferred  []int
	NumColors int
	Counts    []int
}

// legacyRoute mirrors the route entry that v6 binaries persisted before
// routing became process-local: the routed circuit as a signature into
// the snapshot's circuit pool, and the final mapping and SWAP provenance
// flattened to plain slices.
type legacyRoute struct {
	RoutedSig string
	LogToPhys []int
	PhysToLog []int
	Inserted  []bool
	SwapCount int
}

// legacySnapshot is every section a v6 binary has written: diskSnapshot
// plus the per-component slice section (written while the slice solver
// split each slice into connected components, keyed "v<N>|c|" + the rest
// of a slice key) and the circuit pool with the route and circ sections
// that referenced it (written while those regions persisted). gob matches
// fields by name, so encoding it reproduces an older binary's file.
type legacySnapshot struct {
	Magic      string
	Version    int
	KeyVersion int
	SMT        map[string]persistedSMT
	Park       map[string][]float64
	Slice      map[string]SliceSolution
	SliceComp  map[string]componentSolution
	Static     []diskEntry
	Circuits   map[string][]byte
	Route      map[string]legacyRoute
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

// AddLegacySections rewrites the plain snapshot at path in the layout
// older v6 binaries wrote, and returns how many component entries it
// added: one per whole-slice entry (the entry a single-component slice
// produced). The circuit pool, route and circ sections gain one entry
// each, with arbitrary contents: nothing reads those sections any more.
// It lives in this internal test file so that the external warm-start
// tests can build such a snapshot from a real compile.
func AddLegacySections(tb testing.TB, path string) int {
	tb.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	var snap legacySnapshot
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
	const sig = "00112233445566778899aabbccddeeff"
	snap.Circuits = map[string][]byte{sig: []byte("any bytes")}
	snap.Route = map[string]legacyRoute{
		prefix + "2|1|" + sig + "|devsig|identity|greedy|0|0": {
			RoutedSig: sig, LogToPhys: []int{0, 1}, PhysToLog: []int{0, 1}, Inserted: []bool{false},
		},
	}
	snap.Circ = []string{sig}
	writeGob(tb, path, snap)
	return len(snap.SliceComp)
}

// RegionLen returns the number of entries c holds in region, for the
// external tests that check which regions a snapshot load filled.
func RegionLen(c *Cache, region string) int { return len(c.regionEntries(region)) }

// TestSnapshotRoundTripComponentSolutions round-trips a whole-slice entry
// through a snapshot that also carries the per-component, circuit pool,
// route and circ sections older v6 binaries wrote. The load is clean,
// the whole-slice entry comes back unchanged, and the legacy entries are
// dropped: nothing reads them.
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
	if n := AddLegacySections(t, path); n != 1 {
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
	writeGob(t, path, legacySnapshot{
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
