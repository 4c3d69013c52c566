package server

import (
	"bytes"
	"encoding/gob"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"fastsc/internal/compile"
	"fastsc/internal/faultpoint"
)

func storeWithPath(t *testing.T) (*batchStore, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "batches.store")
	st := newBatchStore(16)
	if _, _, err := st.Open(path); err != nil {
		t.Fatal(err)
	}
	return st, path
}

func TestStoreRoundTrip(t *testing.T) {
	st, path := storeWithPath(t)
	if st.Epoch() != 1 {
		t.Fatalf("fresh epoch = %d, want 1", st.Epoch())
	}
	done := st.add(2, 7)
	_ = done.appendLine(ResultLine{Type: "result", ID: "a", Index: 0, Strategy: "s"})
	_ = done.appendLine(ResultLine{Type: "error", ID: "b", Index: 1, Strategy: "s", Error: "boom"})
	done.finish(DoneLine{Type: "done", Jobs: 2, Failed: 1, ElapsedMicros: 123}, "done")
	running := st.add(1, 5)
	running.setRunning()
	queued := st.add(1, 5)
	if err := st.SaveNow(); err != nil {
		t.Fatal(err)
	}

	// A new store (the restarted process) restores everything: the done
	// batch verbatim, the in-flight ones re-marked interrupted.
	st2 := newBatchStore(16)
	restored, interrupted, err := st2.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if restored != 3 || interrupted != 2 {
		t.Fatalf("restored %d interrupted %d, want 3 and 2", restored, interrupted)
	}
	if st2.Epoch() != 2 {
		t.Fatalf("epoch after recovery = %d, want 2", st2.Epoch())
	}
	got := st2.get(done.id).snapshot()
	if got.Status != "done" || got.Failed != 1 || got.Completed != 2 || got.ElapsedMicros != 123 {
		t.Fatalf("restored done batch: %+v", got)
	}
	if got.Results[1].Error != "boom" {
		t.Fatalf("restored results: %+v", got.Results)
	}
	for _, id := range []string{running.id, queued.id} {
		if s := st2.get(id).snapshot().Status; s != "interrupted" {
			t.Fatalf("batch %s status = %q, want interrupted", id, s)
		}
	}
	// The id counter is restored too: new ids never collide with old ones.
	fresh := st2.add(1, 5)
	if st2.get(fresh.id) != st2.m[fresh.id] || fresh.id == done.id || fresh.id == queued.id {
		t.Fatalf("post-recovery id %q collides", fresh.id)
	}
}

// TestStoreCorruptSnapshotDegradesToEmpty covers the whole degrade
// contract: corrupt bytes, a truncated file, and a version-mismatched
// snapshot each produce an empty store with a nil error.
func TestStoreCorruptSnapshotDegradesToEmpty(t *testing.T) {
	makeSnapshot := func(t *testing.T) (string, []byte) {
		st, path := storeWithPath(t)
		st.add(1, 5).finish(DoneLine{Type: "done", Jobs: 1}, "done")
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return path, data
	}

	encode := func(t *testing.T, snap storeSnapshot) []byte {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, tc := range []struct {
		name   string
		reason string
		mutate func(t *testing.T, data []byte) []byte
	}{
		{"corrupt header", compile.DegradedCorrupt, func(t *testing.T, data []byte) []byte {
			for i := 0; i < 16 && i < len(data); i++ {
				data[i] ^= 0xff
			}
			return data
		}},
		{"truncated", compile.DegradedCorrupt, func(t *testing.T, data []byte) []byte {
			return data[:len(data)/2]
		}},
		{"other magic", compile.DegradedBadMagic, func(t *testing.T, data []byte) []byte {
			return encode(t, storeSnapshot{
				Magic: "not-a-batch-store", Version: storeVersion, Epoch: 9, Seq: 9,
				Records: []persistedBatch{{ID: "b-000001", Status: "done", Jobs: 1}},
			})
		}},
		{"version mismatch", compile.DegradedVersionSkew, func(t *testing.T, data []byte) []byte {
			return encode(t, storeSnapshot{
				Magic: storeMagic, Version: storeVersion + 1, Epoch: 9, Seq: 9,
				Records: []persistedBatch{{ID: "b-000001", Status: "done", Jobs: 1}},
			})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path, data := makeSnapshot(t)
			if err := os.WriteFile(path, tc.mutate(t, data), 0o644); err != nil {
				t.Fatal(err)
			}
			st := newBatchStore(16)
			restored, interrupted, err := st.Open(path)
			if err != nil {
				t.Fatalf("Open must degrade with a nil error, got %v", err)
			}
			if restored != 0 || interrupted != 0 || st.len() != 0 {
				t.Fatalf("restored %d interrupted %d len %d, want empty", restored, interrupted, st.len())
			}
			if got := st.Degraded(); got != tc.reason {
				t.Fatalf("degraded reason %q, want %q", got, tc.reason)
			}
			// A degraded store starts a fresh epoch and keeps working.
			if st.Epoch() != 1 {
				t.Fatalf("epoch = %d, want 1 after degrade", st.Epoch())
			}
			rec := st.add(1, 5)
			rec.finish(DoneLine{Type: "done", Jobs: 1}, "done")
			if err := st.SaveNow(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestStoreMissingFileStartsEmpty(t *testing.T) {
	st := newBatchStore(16)
	restored, interrupted, err := st.Open(filepath.Join(t.TempDir(), "absent.store"))
	if err != nil || restored != 0 || interrupted != 0 || st.Degraded() != "" {
		t.Fatalf("Open(missing) = %d, %d, %v with reason %q", restored, interrupted, err, st.Degraded())
	}
}

// TestStoreFaultpointSaveErr: an injected persist failure is counted and
// swallowed — the store keeps serving from memory and the next persist
// succeeds.
func TestStoreFaultpointSaveErr(t *testing.T) {
	defer faultpoint.Reset()
	faultpoint.Reset()
	st, path := storeWithPath(t)
	if err := faultpoint.Arm(faultpoint.StoreSaveErr + "*1"); err != nil {
		t.Fatal(err)
	}
	rec := st.add(1, 5) // this add's persist hits the fault point
	if _, _, saveErrs := st.RecoveryStats(); saveErrs != 1 {
		t.Fatalf("saveErrs = %d, want 1", saveErrs)
	}
	if st.get(rec.id) == nil {
		t.Fatal("record lost after failed persist")
	}
	rec.finish(DoneLine{Type: "done", Jobs: 1}, "done")
	st2 := newBatchStore(16)
	restored, _, err := st2.Open(path)
	if err != nil || restored != 1 {
		t.Fatalf("after recovered persist: restored %d, %v", restored, err)
	}
}

// TestStoreFaultpointLoadCorrupt: the store.load.corrupt point flips the
// snapshot bytes on read, forcing the degrade path without touching the
// file — the chaos harness uses this to prove a daemon boots through a
// corrupt store.
func TestStoreFaultpointLoadCorrupt(t *testing.T) {
	defer faultpoint.Reset()
	faultpoint.Reset()
	st, path := storeWithPath(t)
	st.add(1, 5).finish(DoneLine{Type: "done", Jobs: 1}, "done")

	if err := faultpoint.Arm(faultpoint.StoreLoadCorrupt + "*1"); err != nil {
		t.Fatal(err)
	}
	st2 := newBatchStore(16)
	restored, _, err := st2.Open(path)
	if err != nil || restored != 0 {
		t.Fatalf("corrupt-injected Open: restored %d, %v; want empty, nil", restored, err)
	}
	if faultpoint.Fired(faultpoint.StoreLoadCorrupt) != 1 {
		t.Fatal("fault point did not fire")
	}
	// Disarmed, the same file restores fine: the corruption was injected,
	// not real.
	st3 := newBatchStore(16)
	if restored, _, err := st3.Open(path); err != nil || restored != 1 {
		t.Fatalf("clean Open: restored %d, %v", restored, err)
	}
}

// TestStoreSaveErrIsInjected asserts the injected error identity so a
// genuine I/O failure can never masquerade as an armed fault point.
func TestStoreSaveErrIsInjected(t *testing.T) {
	defer faultpoint.Reset()
	faultpoint.Reset()
	if err := faultpoint.Arm(faultpoint.StoreSaveErr); err != nil {
		t.Fatal(err)
	}
	err := writeStoreSnapshot(filepath.Join(t.TempDir(), "s"), storeSnapshot{Magic: storeMagic, Version: storeVersion})
	if !errors.Is(err, faultpoint.ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
}
