package server

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"fastsc/internal/compile"
	"fastsc/internal/faultpoint"
)

// storeVersion is the on-disk batch-store snapshot format version. Like
// the cache snapshot (compile.SnapshotVersion), a snapshot with any other
// version is rejected wholesale and the store starts empty — degradation
// over misinterpretation.
const storeVersion = 1

// storeMagic guards against feeding an arbitrary gob stream to Open.
const storeMagic = "fastsc-batch-store"

// appendSaveInterval throttles mid-batch persists: results stream in per
// job, but the store is written at most once per interval on that path
// (add and finish always persist synchronously). A crash loses at most
// the last interval of per-job results of running batches — their batch
// records themselves are already durable.
const appendSaveInterval = 200 * time.Millisecond

// storeSnapshot is the gob payload of a batch-store snapshot.
type storeSnapshot struct {
	Magic   string
	Version int
	// Epoch counts store generations: 1 for a fresh store, incremented on
	// every recovery, so operators can tell "restarted n times" from the
	// /metrics of a fleet.
	Epoch int64
	// Seq is the batch-id counter, restored so recovered and new batch ids
	// never collide.
	Seq     int64
	Records []persistedBatch
}

// persistedBatch is the durable form of one batchRecord.
type persistedBatch struct {
	ID        string
	Status    string
	Jobs      int
	Failed    int
	Priority  int
	Epoch     int64
	Results   []ResultLine
	Cache     *CacheReport
	ElapsedUs int64
}

// batchStore holds async batches for polling, optionally mirrored to a
// versioned snapshot on disk (Open). It is bounded: adding a batch beyond
// the limit evicts the oldest *terminal* batch (running and queued batches
// are never evicted, so an accepted batch can always be polled at least
// until it completes and one poll-window later).
//
// Durability contract: add and finish persist synchronously — a 202 ack
// means the batch record survives kill -9, and a finished batch stays
// pollable across a restart. Per-job result lines persist on a throttle
// (appendSaveInterval). A batch that was queued or running when the
// process died is re-marked "interrupted" by the next Open; it is never
// silently lost and never silently resurrected as runnable.
type batchStore struct {
	mu    sync.Mutex
	m     map[string]*batchRecord
	order []string
	limit int
	seq   int64

	// path is the snapshot file; empty disables persistence entirely.
	path  string
	epoch int64
	// restored / interrupted / degraded describe the last Open, for
	// /metrics. degraded is the reason a discarded file was discarded,
	// named as for the cache snapshot (compile.DegradedCorrupt,
	// DegradedBadMagic, DegradedVersionSkew), and empty otherwise.
	restored    int64
	interrupted int64
	degraded    string

	saveMu       sync.Mutex   // serializes snapshot writes
	saveErrs     atomic.Int64 // failed persists (store kept serving from memory)
	lastSaveNano atomic.Int64 // unix nanos of the last append-path persist
}

func newBatchStore(limit int) *batchStore {
	return &batchStore{m: make(map[string]*batchRecord), limit: limit, epoch: 1}
}

// Open attaches the store to a snapshot file and restores whatever the
// previous process persisted there. Recovery follows the cache-snapshot
// contract: a missing file starts epoch 1 empty; a corrupt, truncated or
// version-mismatched snapshot degrades to an empty store with a nil error
// (the daemon must boot) and the reason in Degraded; only genuine I/O
// errors on an existing file are returned. Batches persisted as queued or
// running are re-marked "interrupted" — the process died under them — and
// count toward the interrupted metric. The restored epoch is the persisted
// epoch + 1.
func (st *batchStore) Open(path string) (restored, interrupted int, err error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.path = path
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, 0, nil
		}
		return 0, 0, fmt.Errorf("server: read batch store: %w", err)
	}
	data = faultpoint.Corrupt(faultpoint.StoreLoadCorrupt, data)
	var snap storeSnapshot
	switch {
	case gob.NewDecoder(bytes.NewReader(data)).Decode(&snap) != nil:
		st.degraded = compile.DegradedCorrupt
	case snap.Magic != storeMagic:
		st.degraded = compile.DegradedBadMagic
	case snap.Version != storeVersion:
		st.degraded = compile.DegradedVersionSkew
	}
	if st.degraded != "" {
		return 0, 0, nil // empty store
	}
	st.epoch = snap.Epoch + 1
	st.seq = snap.Seq
	for _, p := range snap.Records {
		status := p.Status
		if status == "queued" || status == "running" {
			status = "interrupted"
			interrupted++
		}
		rec := &batchRecord{
			id: p.ID, status: status, jobs: p.Jobs, failed: p.Failed,
			prio: p.Priority, epoch: p.Epoch,
			results: p.Results, cache: p.Cache, elapsedUs: p.ElapsedUs,
		}
		st.m[rec.id] = rec
		st.order = append(st.order, rec.id)
		restored++
	}
	st.restored = int64(restored)
	st.interrupted = int64(interrupted)
	return restored, interrupted, nil
}

// add registers a new queued batch, persists the store, and returns the
// record.
func (st *batchStore) add(jobs, prio int) *batchRecord {
	st.mu.Lock()
	st.seq++
	rec := &batchRecord{
		id: fmt.Sprintf("b-%06d", st.seq), status: "queued",
		jobs: jobs, prio: prio, epoch: st.epoch, store: st,
	}
	st.m[rec.id] = rec
	st.order = append(st.order, rec.id)
	if len(st.m) > st.limit {
		for i, oid := range st.order {
			if old := st.m[oid]; old != nil && old.isTerminal() {
				delete(st.m, oid)
				st.order = append(st.order[:i], st.order[i+1:]...)
				break
			}
		}
	}
	st.mu.Unlock()
	st.persist()
	return rec
}

// get returns the record for id, or nil.
func (st *batchStore) get(id string) *batchRecord {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.m[id]
}

// len returns the number of stored batches.
func (st *batchStore) len() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.m)
}

// Epoch returns the store generation (1 fresh, +1 per recovery).
func (st *batchStore) Epoch() int64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.epoch
}

// Degraded returns why the last Open discarded the store file, or "" when
// it restored the file, found none or was never called.
func (st *batchStore) Degraded() string {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.degraded
}

// RecoveryStats returns the restored and interrupted counts of the last
// Open and the persist-failure count.
func (st *batchStore) RecoveryStats() (restored, interrupted, saveErrs int64) {
	st.mu.Lock()
	restored, interrupted = st.restored, st.interrupted
	st.mu.Unlock()
	return restored, interrupted, st.saveErrs.Load()
}

// SaveNow persists the store synchronously (no-op without Open). The
// daemon calls it on shutdown; add/finish call it through persist.
func (st *batchStore) SaveNow() error { return st.persist() }

// persist writes the snapshot atomically (temp file + rename). Persist
// failures are counted and swallowed: the store keeps serving from
// memory, trading durability for availability exactly like cache-snapshot
// saves.
func (st *batchStore) persist() error {
	st.saveMu.Lock()
	defer st.saveMu.Unlock()

	st.mu.Lock()
	if st.path == "" {
		st.mu.Unlock()
		return nil
	}
	path := st.path
	snap := storeSnapshot{Magic: storeMagic, Version: storeVersion, Epoch: st.epoch, Seq: st.seq}
	// Iterate the explicit insertion order, not the map: the snapshot
	// bytes must be identical for identical store contents (the same
	// determinism discipline as the cache snapshot's static section).
	for _, id := range st.order {
		r := st.m[id]
		r.mu.Lock()
		snap.Records = append(snap.Records, persistedBatch{
			ID: r.id, Status: r.status, Jobs: r.jobs, Failed: r.failed,
			Priority: r.prio, Epoch: r.epoch,
			Results: append([]ResultLine(nil), r.results...),
			Cache:   r.cache, ElapsedUs: r.elapsedUs,
		})
		r.mu.Unlock()
	}
	st.mu.Unlock()

	err := writeStoreSnapshot(path, snap)
	if err != nil {
		st.saveErrs.Add(1)
	}
	st.lastSaveNano.Store(time.Now().UnixNano())
	return err
}

// maybePersist is the throttled append-path persist.
func (st *batchStore) maybePersist() {
	last := st.lastSaveNano.Load()
	now := time.Now().UnixNano()
	if now-last < int64(appendSaveInterval) {
		return
	}
	if !st.lastSaveNano.CompareAndSwap(last, now) {
		return // another appender is persisting
	}
	_ = st.persist()
}

func writeStoreSnapshot(path string, snap storeSnapshot) error {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
		return fmt.Errorf("server: encode batch store: %w", err)
	}
	if err := faultpoint.Err(faultpoint.StoreSaveErr); err != nil {
		return fmt.Errorf("server: write batch store: %w", err)
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, buf.Bytes(), 0o644); err != nil {
		return fmt.Errorf("server: write batch store: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("server: write batch store: %w", err)
	}
	return nil
}

// batchRecord is one async batch's poll state. Results accumulate in
// completion order as the engine streams them.
type batchRecord struct {
	id    string
	store *batchStore // nil for restored records (no further writes)
	mu    sync.Mutex
	// status: "queued" | "running", then a terminal batchStatus ("done",
	// "expired", "shed", "canceled") or "interrupted" after recovery.
	status    string
	jobs      int
	failed    int
	prio      int
	epoch     int64
	results   []ResultLine
	cache     *CacheReport
	elapsedUs int64
}

// appendLine records one emitted stream line; DoneLines are applied by
// finish instead. Appends persist on a throttle.
func (r *batchRecord) appendLine(line any) error {
	rl, ok := line.(ResultLine)
	if !ok {
		return nil
	}
	r.mu.Lock()
	r.results = append(r.results, rl)
	if rl.Type == "error" {
		r.failed++
	}
	st := r.store
	r.mu.Unlock()
	if st != nil {
		st.maybePersist()
	}
	return nil
}

// setRunning marks the batch as holding a compile slot.
func (r *batchRecord) setRunning() {
	r.mu.Lock()
	if r.status == "queued" {
		r.status = "running"
	}
	r.mu.Unlock()
}

// finish applies the terminal DoneLine and status, then persists.
func (r *batchRecord) finish(done DoneLine, status string) {
	r.mu.Lock()
	r.status = status
	r.failed = done.Failed
	r.cache = done.Cache
	r.elapsedUs = done.ElapsedMicros
	st := r.store
	r.mu.Unlock()
	if st != nil {
		_ = st.persist()
	}
}

// isTerminal reports whether the batch can no longer change (and so may
// be evicted under capacity pressure).
func (r *batchRecord) isTerminal() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.status != "queued" && r.status != "running"
}

// snapshot renders the record as a poll response.
func (r *batchRecord) snapshot() BatchStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	return BatchStatus{
		Batch:         r.id,
		Status:        r.status,
		Jobs:          r.jobs,
		Completed:     len(r.results),
		Failed:        r.failed,
		Results:       append([]ResultLine(nil), r.results...),
		Cache:         r.cache,
		ElapsedMicros: r.elapsedUs,
	}
}
