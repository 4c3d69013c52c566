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
	"strings"

	"fastsc/internal/faultpoint"
	"fastsc/internal/smt"
)

// SnapshotVersion is the version of the on-disk snapshot format and of
// every cache key and signature scheme. A snapshot written at any other
// version — older or newer — degrades to a cold start
// (DegradedVersionSkew): entries are never re-keyed, so keys from another
// scheme can never satisfy a current lookup. Keys from two schemes can
// meet only through a snapshot, so this one number versions both: bump it
// whenever a persisted value shape, a key or a signature changes.
// docs/architecture.md, "SnapshotVersion history", lists each change.
const SnapshotVersion = 7

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

// diskSnapshot is the gob payload of a cache snapshot: one typed section
// per persisted region, each decoded in one pass. Palette holds the
// static region; the name differs from the v6 section Static so that a
// v6 file and this struct never decode a field of the same name and
// another type, which gob reports as a corrupt stream instead of reaching
// the version check. The field set is pinned by the keyfields analyzer
// (this struct is an on-disk codec: adding a field is a format change).
type diskSnapshot struct {
	Magic   string
	Version int
	SMT     map[string]persistedSMT
	Park    map[string][]float64
	Slice   map[string]SliceSolution
	Palette map[string]SliceSolution
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
// compression regardless of name. gob writes each section in
// map-iteration order, so two Saves of one unchanged cache decode to the
// same contents but differ in their bytes.
func (c *Cache) Save(path string) error {
	snap := diskSnapshot{
		Magic:   snapshotMagic,
		Version: SnapshotVersion,
		SMT:     make(map[string]persistedSMT),
		Park:    make(map[string][]float64),
		Slice:   make(map[string]SliceSolution),
		Palette: make(map[string]SliceSolution),
	}
	for k, v := range c.regionEntries(RegionSMT) {
		snap.SMT[k] = toPersistedSMT(v.(smtResult))
	}
	for k, v := range c.regionEntries(RegionParking) {
		snap.Park[k] = v.([]float64)
	}
	for k, v := range c.regionEntries(RegionSlice) {
		snap.Slice[k] = v.(SliceSolution)
	}
	for k, v := range c.regionEntries(RegionStatic) {
		snap.Palette[k] = v.(SliceSolution)
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
	// DegradedVersionSkew: written at another SnapshotVersion, older or
	// newer; its keys could never hit.
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
// On success the returned snapshot is at the current SnapshotVersion; on
// degradation it is nil and the reason says why.
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
	if snap.Version != SnapshotVersion {
		return nil, DegradedVersionSkew
	}
	return &snap, ""
}

// LoadSnapshot restores a snapshot written by Save into the cache.
// Compressed snapshots are detected by their gzip magic bytes, not their
// name, so a ".gz" snapshot renamed plain (or vice versa) still loads.
// Degradation is deliberate and never fatal: a missing file, a corrupt or
// truncated snapshot, or a snapshot of another version all leave the
// cache cold, with the reason for a discarded file in LoadResult.Degraded
// — a compilation must never fail because its warm start did. The
// returned error is non-nil only for genuine I/O failures on an existing
// file.
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
	for k, v := range snap.Palette {
		c.Put(RegionStatic, k, v)
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
