package compile

import (
	"bytes"
	"encoding/gob"
	"os"
	"testing"

	"fastsc/internal/graph"
)

// legacySnapshot is the layout v6 binaries wrote: a separate key-scheme
// version beside the format version, and the static region as a slice of
// individually gob-encoded entries under the name Static. gob matches
// fields by name, so encoding it reproduces such a file.
type legacySnapshot struct {
	Magic      string
	Version    int
	KeyVersion int
	SMT        map[string]persistedSMT
	Park       map[string][]float64
	Slice      map[string]SliceSolution
	Static     []struct {
		Key  string
		Blob []byte
	}
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

// TestSnapshotAncientVersionIsCold: a snapshot of an earlier generation,
// written in the layout v6 binaries used (v5 files shared it), degrades
// to cold with the version-skew reason — never an error, never a partial
// restore, and never "corrupt": the current format names its static
// section differently, so gob never meets one field name with two types.
func TestSnapshotAncientVersionIsCold(t *testing.T) {
	for _, version := range []int{5, 6} {
		snap := legacySnapshot{
			Magic:      snapshotMagic,
			Version:    version,
			KeyVersion: version,
			SMT:        map[string]persistedSMT{"2|0|0|0|0": {Xs: []float64{6.1, 6.4}, Delta: 0.3}},
			Park:       map[string][]float64{"sys": {5.0}},
			Slice: map[string]SliceSolution{"v6|sig|2|2|1": {
				Coloring: graph.Coloring{-1, 0}, NumColors: 1, Assign: []float64{6.2},
			}},
			Static: []struct {
				Key  string
				Blob []byte
			}{{Key: "sys", Blob: []byte("an opaque gob blob")}},
		}
		path := snapshotPath(t)
		writeGob(t, path, snap)
		c := NewCache(0)
		res, err := c.LoadSnapshot(path)
		if err != nil || res.Restored != 0 || c.Len() != 0 {
			t.Fatalf("v%d snapshot: res=%+v err=%v len=%d, want cold", version, res, err, c.Len())
		}
		if res.Degraded != DegradedVersionSkew {
			t.Fatalf("v%d snapshot: Degraded = %q, want %q", version, res.Degraded, DegradedVersionSkew)
		}
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
		if err != nil || res.Restored != 0 || res.Degraded != "" {
			t.Fatalf("missing file: res=%+v err=%v, want nothing restored and not Degraded", res, err)
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
		if err != nil || res.Degraded != DegradedVersionSkew {
			t.Fatalf("future version: res=%+v err=%v, want Degraded=%q", res, err, DegradedVersionSkew)
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
