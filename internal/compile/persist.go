package compile

import (
	"bytes"
	"compress/gzip"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"fastsc/internal/faultpoint"
	"fastsc/internal/smt"
)

// SnapshotVersion is the on-disk snapshot format version. A snapshot
// written at an older version is migrated forward on load, one registered
// step at a time (see migrate.go); a version with no registered migration
// path — or a future version — degrades to a cold start. Stale keys are
// never read back verbatim: every migration step re-keys and re-validates
// the entries it carries forward.
//
// History: v3 switched the cached value shapes to the flat-core
// representation (parking assignments and color→frequency maps became
// dense slices, colorings became []int32), so v2 snapshots no longer
// decode. v4 accompanies the dense phys.System / analyzed-circuit IR
// rewrite (KeyVersion 3): slice keys carry the new key version, so v3
// snapshots would never hit anyway and are rejected wholesale. v5
// accompanies component-decomposed slice solving (KeyVersion 5): the
// slice region now holds two value shapes — whole-slice SliceSolution
// and per-component ComponentSolution — persisted in separate snapshot
// sections so each decodes with its concrete type. v6 accompanies the
// tiered warm-cache subsystem (KeyVersion 6), and v5 snapshots are the
// first to migrate forward (slice keys re-keyed v5|→v6|) instead of being
// dropped. Two sections have since stopped being written, each with no
// version bump because gob skips a field the reader lacks: the
// per-component slice section (the slice solver no longer decomposes
// slices), and the circuit pool with its route and circ sections (routing
// and analysis recompute faster than they decode). A v6 snapshot written
// before either change still loads, minus those entries.
const SnapshotVersion = 6

// snapshotMagic guards against feeding an arbitrary gob stream (or a
// truncated file) to Load.
const snapshotMagic = "fastsc-cache-snapshot"

// PersistRegions are the cache regions included in snapshots: the solver
// results. SMT solves, static palettes, parking assignments and slice
// solutions are pure functions of content-hashed inputs (system
// signatures, exact vertex sets), so an entry written by one process is
// valid in every other. RegionXtalk, RegionRoute and RegionCircuit stay
// process-local: crosstalk graphs rebuild from the device alone, and
// routing or analyzing a circuit again is faster than decoding it from a
// snapshot.
var PersistRegions = []string{RegionSMT, RegionStatic, RegionParking, RegionSlice}

// gzipSuffix marks snapshot paths Save writes gzip-compressed. Load does
// not consult the name: it sniffs the gzip magic bytes, so compressed and
// plain snapshots are interchangeable on the read side.
const gzipSuffix = ".gz"

// RegisterSnapshotType registers a concrete type stored in the
// opaque-valued static region with the snapshot codec, so Save can encode
// it and Load can decode it. Packages that put their own types into the
// cache call this from an init function (schedule does for its static
// palette). It is a thin wrapper over gob.Register.
func RegisterSnapshotType(v any) { gob.Register(v) }

// diskSnapshot is the gob payload of a cache snapshot. The typed regions
// decode in one pass; Static carries individually encoded blobs because
// its values are opaque to this package and one unregistered type must
// cost one entry, not the snapshot. The field set is pinned by the
// keyfields analyzer (this struct is an on-disk codec: adding a field
// without considering migration is a format change).
type diskSnapshot struct {
	Magic      string
	Version    int
	KeyVersion int
	SMT        map[string]persistedSMT
	Park       map[string][]float64
	Slice      map[string]SliceSolution
	Static     []diskEntry
}

// diskEntry is one opaque static-region entry; Blob is the value
// gob-encoded on its own.
type diskEntry struct {
	Key  string
	Blob []byte
}

// persistedSMT is the gob form of an smtResult: the error is flattened to
// its message plus an infeasibility flag so errors.Is(err,
// smt.ErrInfeasible) still holds after a round trip.
type persistedSMT struct {
	Xs         []float64
	Delta      float64
	ErrMsg     string
	Infeasible bool
}

// persistedErr restores a flattened error with its ErrInfeasible identity.
type persistedErr struct {
	msg  string
	base error
}

func (e *persistedErr) Error() string { return e.msg }
func (e *persistedErr) Unwrap() error { return e.base }

func toPersistedSMT(r smtResult) persistedSMT {
	p := persistedSMT{Xs: r.xs, Delta: r.delta}
	if r.err != nil {
		p.ErrMsg = r.err.Error()
		p.Infeasible = errors.Is(r.err, smt.ErrInfeasible)
	}
	return p
}

func fromPersistedSMT(p persistedSMT) smtResult {
	r := smtResult{xs: p.Xs, delta: p.Delta}
	if p.ErrMsg != "" {
		if p.Infeasible {
			r.err = &persistedErr{msg: p.ErrMsg, base: smt.ErrInfeasible}
		} else {
			r.err = errors.New(p.ErrMsg)
		}
	}
	return r
}

// Save writes a versioned snapshot of the solver-result cache regions
// (PersistRegions) to path, atomically (temp file + rename). A
// path ending in ".gz" is written gzip-compressed (gob streams of
// repetitive float tables compress several-fold); Load auto-detects the
// compression regardless of name. Static-region entries whose values
// cannot be gob-encoded — an unregistered provider type — are skipped
// silently: a snapshot is a best-effort warm start, never a source of
// truth. Save on a nil cache is a no-op.
func (c *Cache) Save(path string) error {
	if c == nil {
		return nil
	}
	snap := diskSnapshot{
		Magic:      snapshotMagic,
		Version:    SnapshotVersion,
		KeyVersion: KeyVersion,
		SMT:        make(map[string]persistedSMT),
		Park:       make(map[string][]float64),
		Slice:      make(map[string]SliceSolution),
	}
	for k, v := range c.regionEntries(RegionSMT) {
		snap.SMT[k] = toPersistedSMT(v.(smtResult))
	}
	for k, v := range c.regionEntries(RegionParking) {
		snap.Park[k] = v.([]float64)
	}
	for k, v := range c.regionEntries(RegionSlice) {
		if sol, ok := v.(SliceSolution); ok {
			snap.Slice[k] = sol
		}
	}
	// Emit static entries in sorted key order: the section is a slice
	// built from a map range, and emitting it unsorted would make the
	// snapshot bytes differ from run to run for identical cache contents
	// (the fig13 nondeterminism class, caught by the maporder analyzer).
	static := c.regionEntries(RegionStatic)
	staticKeys := make([]string, 0, len(static))
	for k := range static {
		staticKeys = append(staticKeys, k)
	}
	sort.Strings(staticKeys)
	for _, k := range staticKeys {
		v := static[k]
		var blob bytes.Buffer
		if err := gob.NewEncoder(&blob).Encode(&v); err != nil {
			continue
		}
		snap.Static = append(snap.Static, diskEntry{Key: k, Blob: blob.Bytes()})
	}
	var buf bytes.Buffer
	var enc *gob.Encoder
	var gz *gzip.Writer
	if strings.HasSuffix(path, gzipSuffix) {
		gz = gzip.NewWriter(&buf)
		enc = gob.NewEncoder(gz)
	} else {
		enc = gob.NewEncoder(&buf)
	}
	if err := enc.Encode(snap); err != nil {
		return fmt.Errorf("compile: encode cache snapshot: %w", err)
	}
	if gz != nil {
		if err := gz.Close(); err != nil {
			return fmt.Errorf("compile: encode cache snapshot: %w", err)
		}
	}
	if err := faultpoint.Err(faultpoint.SnapshotSaveErr); err != nil {
		return fmt.Errorf("compile: write cache snapshot: %w", err)
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, faultpoint.Corrupt(faultpoint.SnapshotSaveCorrupt, buf.Bytes()), 0o644); err != nil {
		return fmt.Errorf("compile: write cache snapshot: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("compile: write cache snapshot: %w", err)
	}
	return nil
}

// Degradation reasons reported in LoadResult.Degraded (and exported by
// fastscd as fastscd_snapshot_degraded_total{reason=...}). Empty means the
// load was clean (including the missing-file cold-by-choice case).
const (
	// DegradedCorrupt: the file exists but is not a decodable snapshot
	// (truncated, bit-flipped, or not gob at all).
	DegradedCorrupt = "corrupt"
	// DegradedBadMagic: a well-formed gob stream that is not a cache
	// snapshot.
	DegradedBadMagic = "bad-magic"
	// DegradedFutureVersion: written by a newer binary; this one cannot
	// know how to read it.
	DegradedFutureVersion = "future-version"
	// DegradedNoMigration: an old version with no registered migration
	// path to the current format.
	DegradedNoMigration = "no-migration-path"
	// DegradedKeySkew: the snapshot (after any migrations) still carries a
	// key generation this binary does not use — its keys could never hit.
	DegradedKeySkew = "key-version-skew"
)

// LoadResult describes one snapshot load: how many entries were restored,
// how many passed through a re-key migration, which on-disk version the
// file carried, and — when the cache stayed cold — whether that was by
// choice (Missing: no file) or by degradation (Degraded: a reason
// constant). Operators use the distinction to tell "first boot" from
// "corrupt snapshot silently discarded".
type LoadResult struct {
	Restored    int
	Migrated    int
	FromVersion int
	Missing     bool
	Degraded    string
}

// decodeSnapshot sniffs, decompresses, decodes and migrates one snapshot
// payload. On success the returned snapshot is at the current
// SnapshotVersion/KeyVersion; on degradation it is nil and the result
// carries the reason.
func decodeSnapshot(data []byte) (*diskSnapshot, LoadResult) {
	var res LoadResult
	var src io.Reader = bytes.NewReader(data)
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b { // gzip magic
		gz, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			res.Degraded = DegradedCorrupt
			return nil, res
		}
		defer gz.Close()
		src = gz
	}
	var snap diskSnapshot
	if err := gob.NewDecoder(src).Decode(&snap); err != nil {
		res.Degraded = DegradedCorrupt
		return nil, res
	}
	if snap.Magic != snapshotMagic {
		res.Degraded = DegradedBadMagic
		return nil, res
	}
	res.FromVersion = snap.Version
	if snap.Version > SnapshotVersion {
		res.Degraded = DegradedFutureVersion
		return nil, res
	}
	for snap.Version < SnapshotVersion {
		step, ok := snapshotMigrations[snap.Version]
		if !ok {
			res.Degraded = DegradedNoMigration
			return nil, res
		}
		res.Migrated += step(&snap)
	}
	if snap.KeyVersion != KeyVersion {
		res.Degraded = DegradedKeySkew
		return nil, res
	}
	return &snap, res
}

// restore walks every entry of a decoded snapshot, decoding the static
// blobs, and hands each to put. It returns the number of entries
// restored; undecodable entries are skipped.
func (snap *diskSnapshot) restore(put func(region, key string, value any)) int {
	restored := 0
	for k, p := range snap.SMT {
		put(RegionSMT, k, fromPersistedSMT(p))
		restored++
	}
	for k, v := range snap.Park {
		put(RegionParking, k, v)
		restored++
	}
	for k, v := range snap.Slice {
		put(RegionSlice, k, v)
		restored++
	}
	for _, ent := range snap.Static {
		var v any
		if err := gob.NewDecoder(bytes.NewReader(ent.Blob)).Decode(&v); err != nil {
			continue
		}
		put(RegionStatic, ent.Key, v)
		restored++
	}
	return restored
}

// readSnapshot reads and decodes path. A missing file is a clean cold
// start (Missing set, no error); only genuine I/O failures on an existing
// file return an error.
func readSnapshot(path string) (*diskSnapshot, LoadResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		var res LoadResult
		if os.IsNotExist(err) {
			res.Missing = true
			return nil, res, nil
		}
		return nil, res, fmt.Errorf("compile: read cache snapshot: %w", err)
	}
	snap, res := decodeSnapshot(data)
	return snap, res, nil
}

// LoadSnapshot restores a snapshot written by Save into the cache.
// Compressed snapshots are detected by their gzip magic bytes, not their
// name, so a ".gz" snapshot renamed plain (or vice versa) still loads.
// Snapshots written at an older version are migrated forward — re-keyed
// and re-validated — by the registered per-version steps, so a KeyVersion
// bump degrades to a partial warm start instead of a cold one.
// Degradation is deliberate and never fatal: a missing file, a corrupt or
// truncated snapshot, an unknown version, or an undecodable entry all
// leave the cache cold (or partially warm) with the reason in
// LoadResult.Degraded — a compilation must never fail because its warm
// start did. The returned error is non-nil only for genuine I/O failures
// on an existing file. LoadSnapshot on a nil cache is a no-op.
func (c *Cache) LoadSnapshot(path string) (LoadResult, error) {
	if c == nil {
		return LoadResult{}, nil
	}
	snap, res, err := readSnapshot(path)
	if snap == nil || err != nil {
		return res, err
	}
	res.Restored = snap.restore(func(region, key string, value any) {
		c.Put(region, key, value)
	})
	return res, nil
}

// Load is LoadSnapshot reduced to the restored-entry count, for callers
// that do not report degradation reasons.
func (c *Cache) Load(path string) (int, error) {
	res, err := c.LoadSnapshot(path)
	return res.Restored, err
}
