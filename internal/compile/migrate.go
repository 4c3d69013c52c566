package compile

import "strings"

// Snapshot migrations: instead of rejecting any snapshot whose version (or
// key generation) differs from the binary's, Load walks it forward one
// registered step at a time — each step re-keys and re-validates the
// entries it carries, drops what it cannot vouch for, and bumps the
// version fields. A warm set built for the previous release therefore
// degrades to a *partial* warm start after an upgrade, not a cold one; a
// snapshot with no registered path (two releases old, or written by a
// future binary) still degrades safely to cold.
//
// Contract for a step registered under version N: it is called only when
// snap.Version == N; it must leave snap at Version N+1 with every
// surviving key valid under the new scheme (bumping snap.KeyVersion
// whenever the key generation advanced in lockstep), and return the
// number of entries it re-keyed. Entries whose old key does not parse as
// the expected shape are dropped, never guessed at. decodeSnapshot
// verifies the final KeyVersion after the walk, so a step that cannot
// translate the keys (unexpected KeyVersion on disk) simply leaves it
// stale and the load degrades with DegradedKeySkew.

// snapshotMigration advances a snapshot from one version to the next,
// returning how many entries it re-keyed.
type snapshotMigration func(*diskSnapshot) int

// snapshotMigrations maps a from-version to its forward step. Dropping an
// entry from this table retires its migration path: snapshots that old
// degrade to cold.
var snapshotMigrations = map[int]snapshotMigration{
	5: migrateSnapshotV5toV6,
}

// migrateSnapshotV5toV6 carries a v5 snapshot (KeyVersion 5) into the v6
// format. The v5→v6 bump changed no key *payload* — only the generation
// prefix of the versioned slice keys — so the step rewrites "v5|…" to
// "v6|…" for whole-slice entries and passes the unversioned regions (SMT,
// park, static) through untouched. A v5 snapshot's per-component entries
// are not carried forward: the slice solver no longer reads them, and gob
// skips their section because diskSnapshot has no field for it. Keys that
// do not carry the exact "v5|" prefix are dropped rather than guessed at.
func migrateSnapshotV5toV6(snap *diskSnapshot) int {
	if snap.KeyVersion != 5 {
		// Not the key generation this step knows how to re-key: advance
		// the format version only and let the KeyVersion check degrade the
		// load. Guessing at unknown keys could alias live ones.
		snap.Version = 6
		return 0
	}
	n := 0
	snap.Slice = rekeyVersionPrefix(snap.Slice, "v5|", "v6|", &n)
	snap.Version = 6
	snap.KeyVersion = 6
	return n
}

// rekeyVersionPrefix rewrites the version prefix of every key in m,
// dropping keys that do not carry exactly the old prefix (re-validation:
// a key that does not parse is never carried forward). The re-key count
// is accumulated into n.
func rekeyVersionPrefix[V any](m map[string]V, from, to string, n *int) map[string]V {
	if len(m) == 0 {
		return m
	}
	out := make(map[string]V, len(m))
	for k, v := range m {
		rest, ok := strings.CutPrefix(k, from)
		if !ok || rest == "" {
			continue
		}
		out[to+rest] = v
		*n++
	}
	return out
}
