package compile

import (
	"bytes"
	"compress/gzip"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"fastsc/internal/faultpoint"
	"fastsc/internal/smt"
)

// SnapshotVersion is the on-disk snapshot format version. A snapshot
// written at any other version — older or newer — degrades to a cold
// start (DegradedVersionSkew), so stale keys are never read back.
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
// persisted route and circ regions (KeyVersion 6). Two sections have
// since stopped being written, each with no version bump because gob
// skips a field the reader lacks: the per-component slice section (the
// slice solver no longer decomposes slices), and the circuit pool with
// its route and circ sections (routing and analysis recompute faster than
// they decode). A v6 snapshot written before either change still loads,
// minus those entries.
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
// keyfields analyzer (this struct is an on-disk codec: adding a field is
// a format change).
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
// truth.
func (c *Cache) Save(path string) error {
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
	// built from a map range, and the maporder analyzer requires such a
	// slice to be sorted (the fig13 nondeterminism class). That makes a
	// snapshot's decoded contents deterministic, not its bytes: gob writes
	// the SMT, Park and Slice maps in map-iteration order, so two Saves of
	// one unchanged cache give different bytes.
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
	// A temp file of its own per call: concurrent Saves to one path must
	// not rename each other's file away. The last rename wins, and every
	// rename installs a complete snapshot.
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("compile: write cache snapshot: %w", err)
	}
	_, err = f.Write(faultpoint.Corrupt(faultpoint.SnapshotSaveCorrupt, buf.Bytes()))
	if err == nil {
		err = f.Chmod(0o644)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		os.Remove(f.Name())
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
	// DegradedVersionSkew: written at another SnapshotVersion or
	// KeyVersion, older or newer; its keys could never hit.
	DegradedVersionSkew = "version-skew"
)

// LoadResult describes one snapshot load: how many entries were restored
// and, when a snapshot file was present but left the cache cold, why
// (Degraded: a reason constant). A missing file restores nothing and
// reports no reason, so operators can tell "first boot" from "corrupt
// snapshot silently discarded".
type LoadResult struct {
	Restored int
	Degraded string
}

// decodeSnapshot sniffs, decompresses and decodes one snapshot payload.
// On success the returned snapshot is at the current
// SnapshotVersion/KeyVersion; on degradation it is nil and the reason says
// why.
func decodeSnapshot(data []byte) (*diskSnapshot, string) {
	var src io.Reader = bytes.NewReader(data)
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b { // gzip magic
		gz, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, DegradedCorrupt
		}
		defer gz.Close()
		src = gz
	}
	var snap diskSnapshot
	if err := gob.NewDecoder(src).Decode(&snap); err != nil {
		return nil, DegradedCorrupt
	}
	if snap.Magic != snapshotMagic {
		return nil, DegradedBadMagic
	}
	if snap.Version != SnapshotVersion || snap.KeyVersion != KeyVersion {
		return nil, DegradedVersionSkew
	}
	return &snap, ""
}

// LoadSnapshot restores a snapshot written by Save into the cache.
// Compressed snapshots are detected by their gzip magic bytes, not their
// name, so a ".gz" snapshot renamed plain (or vice versa) still loads.
// Degradation is deliberate and never fatal: a missing file, a corrupt or
// truncated snapshot, a snapshot of another version, or an undecodable
// entry all leave the cache cold (or partially warm), with the reason for
// a discarded file in LoadResult.Degraded — a compilation must never fail
// because its warm start did. The returned error is non-nil only for
// genuine I/O failures on an existing file.
func (c *Cache) LoadSnapshot(path string) (LoadResult, error) {
	var res LoadResult
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return res, nil
	}
	if err != nil {
		return res, fmt.Errorf("compile: read cache snapshot: %w", err)
	}
	snap, reason := decodeSnapshot(data)
	if snap == nil {
		res.Degraded = reason
		return res, nil
	}
	for k, p := range snap.SMT {
		c.Put(RegionSMT, k, fromPersistedSMT(p))
		res.Restored++
	}
	for k, v := range snap.Park {
		c.Put(RegionParking, k, v)
		res.Restored++
	}
	for k, v := range snap.Slice {
		c.Put(RegionSlice, k, v)
		res.Restored++
	}
	for _, ent := range snap.Static {
		var v any
		if err := gob.NewDecoder(bytes.NewReader(ent.Blob)).Decode(&v); err != nil {
			continue
		}
		c.Put(RegionStatic, ent.Key, v)
		res.Restored++
	}
	return res, nil
}

// Load is LoadSnapshot reduced to the restored-entry count, for callers
// that do not report degradation reasons.
func (c *Cache) Load(path string) (int, error) {
	res, err := c.LoadSnapshot(path)
	return res.Restored, err
}
