package lint

// The key schema table: the compile-time twin of the reflection guard in
// internal/compile/key_test.go (TestKeySchemaDrift). Every struct that a
// compile cache key or signature hashes is pinned here to its exact field
// set; when a field is added the keyfields analyzer fails `make lint`
// before any test runs, with the same remediation contract as the
// runtime guard: fold the field into the key function (or document its
// exclusion), update this table AND the reflection guard, and bump
// compile.KeyVersion.
//
// Keep this table and TestKeySchemaDrift in lockstep — each backstops the
// other (the test still runs where fastscvet does not, e.g. `go test`
// without `make lint`).

// A KeySchema pins one hashed struct: the key function written against
// its layout and the exact expected field names.
type KeySchema struct {
	// KeyFunc names the key/signature function that consumes the struct,
	// for the remediation message.
	KeyFunc string
	// Fields is the exact expected field set (order-insensitive).
	Fields []string
}

// DefaultKeySchema maps "pkgpath.TypeName" to its pinned layout for every
// struct the compile cache hashes.
var DefaultKeySchema = map[string]KeySchema{
	"fastsc/internal/smt.Config": {
		KeyFunc: "compile.SMTKey",
		Fields:  []string{"Lo", "Hi", "Alpha", "MinDelta"},
	},
	"fastsc/internal/topology.Device": {
		KeyFunc: "compile.DeviceSignature",
		Fields:  []string{"Name", "Qubits", "Coupling", "Coords"},
	},
	"fastsc/internal/topology.Coord": {
		KeyFunc: "compile.DeviceSignature",
		Fields:  []string{"Row", "Col"},
	},
	"fastsc/internal/phys.System": {
		// Params and sens (the SensitivityAt memo, derived from Qubits)
		// are deliberately excluded from the hash itself; the guard still
		// pins both fields so adding a sibling fails vet. See the
		// justification in compile/key_test.go.
		KeyFunc: "compile.SystemSignature",
		Fields:  []string{"Device", "Qubits", "Coupling", "Params", "sens"},
	},
	"fastsc/internal/phys.Transmon": {
		KeyFunc: "compile.SystemSignature",
		Fields:  []string{"OmegaMax", "EC", "Asymmetry", "T1", "T2"},
	},
	"fastsc/internal/circuit.Circuit": {
		KeyFunc: "circuit.Signature",
		Fields:  []string{"NumQubits", "Gates"},
	},
	"fastsc/internal/circuit.Gate": {
		KeyFunc: "circuit.Signature",
		Fields:  []string{"Kind", "Qubits", "Theta"},
	},
	"fastsc/internal/mapping.Options": {
		KeyFunc: "compile.RouteKey",
		Fields:  []string{"Placement", "Router"},
	},
	"fastsc/internal/mapping.RouterConfig": {
		KeyFunc: "compile.RouteKey",
		Fields:  []string{"Algorithm", "Window", "Decay"},
	},
	// The snapshot codec struct is pinned for a different failure mode
	// than the key structs above: it is an on-disk gob shape, so a field
	// added to it without considering migration (a SnapshotVersion bump
	// and a migration entry) would silently change the format rather than
	// alias a key.
	"fastsc/internal/compile.diskSnapshot": {
		KeyFunc: "the snapshot codec (compile.Save/Load)",
		Fields:  []string{"Magic", "Version", "KeyVersion", "SMT", "Park", "Slice", "Static"},
	},
}
