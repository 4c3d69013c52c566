package compile

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"fastsc/internal/circuit"
	"fastsc/internal/mapping"
	"fastsc/internal/phys"
	"fastsc/internal/smt"
	"fastsc/internal/topology"
)

// TestSliceKeyCollisionProof is the regression test for the v1 key bug:
// SliceKey used to reduce the active vertex set to a 64-bit FNV digest
// plus a length, so two distinct slices could alias and silently serve
// the wrong frequency assignment. The v2 key encodes the exact sorted
// vertex set, so distinct sets can never map to the same key. The test
// stresses the aliasing families a digest or a sloppy encoding would
// merge: every subset of a small universe (exhaustive injectivity), sets
// with equal length and equal sum (defeats additive hashes), multi-digit
// concatenation ambiguity (defeats separator-free encodings), and
// duplicate-vs-distinct multiplicity.
func TestSliceKeyCollisionProof(t *testing.T) {
	seen := make(map[string][]int)
	record := func(verts []int) {
		k := SliceKey("sig", 2, 2, verts)
		sorted := append([]int(nil), verts...)
		sort.Ints(sorted)
		if prev, ok := seen[k]; ok && !reflect.DeepEqual(prev, sorted) {
			t.Fatalf("collision: %v and %v share key %q", prev, sorted, k)
		}
		seen[k] = sorted
	}

	// Exhaustive: all 2^16 subsets of {0..15}.
	for mask := 0; mask < 1<<16; mask++ {
		var verts []int
		for v := 0; v < 16; v++ {
			if mask&(1<<v) != 0 {
				verts = append(verts, v)
			}
		}
		record(verts)
	}

	// Concatenation-ambiguity pairs: {1,2,3} vs {12,3} vs {1,23} vs {123}.
	for _, verts := range [][]int{{1, 2, 3}, {12, 3}, {1, 23}, {123}, {0x12, 3}, {1, 0x23}} {
		record(verts)
	}

	// Equal length + equal sum, and duplicate multiplicity.
	for _, verts := range [][]int{{0, 3}, {1, 2}, {0, 1, 5}, {0, 2, 4}, {1, 1, 4}, {2, 2, 2}, {1, 2, 2}, {1, 1, 2}} {
		record(verts)
	}

	// Randomized large sets (vertex ids up to realistic coupler counts).
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		n := rng.Intn(40)
		verts := make([]int, n)
		for j := range verts {
			verts[j] = rng.Intn(2048)
		}
		record(verts)
	}
}

// TestSliceKeyVersioned checks that the key carries the key-scheme version
// so a snapshot written under an older scheme can never satisfy a v2
// lookup (Load additionally rejects such snapshots wholesale).
func TestSliceKeyVersioned(t *testing.T) {
	k := SliceKey("sig", 2, 2, []int{1, 2})
	if want := fmt.Sprintf("v%d|", KeyVersion); !strings.HasPrefix(k, want) {
		t.Fatalf("key %q does not carry version prefix %q", k, want)
	}
}

// assertExactFields fails unless typ has exactly the named fields. Every
// key/signature in this package was written against a specific struct
// layout; when a field is added, this guard forces the author to fold it
// into the key (or consciously exclude it), update the expected list and
// bump KeyVersion — otherwise the new field would silently alias cache
// entries across configurations that differ only in it.
func assertExactFields(t *testing.T, typ reflect.Type, keyFunc string, want ...string) {
	t.Helper()
	var got []string
	for i := 0; i < typ.NumField(); i++ {
		got = append(got, typ.Field(i).Name)
	}
	sort.Strings(got)
	sorted := append([]string(nil), want...)
	sort.Strings(sorted)
	if !reflect.DeepEqual(got, sorted) {
		t.Fatalf("%s has fields %v, but %s was written against %v.\n"+
			"Fold the new field into %s (or document its exclusion here), "+
			"update this list, and bump compile.KeyVersion.",
			typ, got, keyFunc, sorted, keyFunc)
	}
}

// TestKeySchemaDrift pins the struct layouts the cache keys hash. See
// assertExactFields for the contract.
func TestKeySchemaDrift(t *testing.T) {
	// All four Config fields are folded into SMTKey.
	assertExactFields(t, reflect.TypeOf(smt.Config{}), "SMTKey",
		"Lo", "Hi", "Alpha", "MinDelta")

	// All Device fields are folded into DeviceSignature: Name, Qubits,
	// Coupling (via the sorted edge list) and Coords (the parking stagger
	// pattern reads them).
	assertExactFields(t, reflect.TypeOf(topology.Device{}), "DeviceSignature",
		"Name", "Qubits", "Coupling", "Coords")
	assertExactFields(t, reflect.TypeOf(topology.Coord{}), "DeviceSignature",
		"Row", "Col")

	// SystemSignature folds Device, Qubits (every Transmon field) and the
	// dense Coupling slice (hashed in coupler-id order, which is Edges()
	// order). Params is excluded on purpose: phys.NewSystem copies every
	// Params field the compilers read into the Transmon draws (OmegaMax,
	// EC, Asymmetry, T1, T2) and the dense Coupling slice (G0); OmegaSigma
	// only shapes the sampling. sens is excluded too: it is the
	// SensitivityAt memo, a cache of values computed from Qubits alone,
	// which the signature already hashes. If System or Transmon gains a
	// field, fold it in or extend this justification.
	assertExactFields(t, reflect.TypeOf(phys.System{}), "SystemSignature",
		"Device", "Qubits", "Coupling", "Params", "sens")
	assertExactFields(t, reflect.TypeOf(phys.Transmon{}), "SystemSignature",
		"OmegaMax", "EC", "Asymmetry", "T1", "T2")

	// The circ region is keyed by circuit.Signature, which folds NumQubits
	// and every Gate field (Kind, Qubits, Theta).
	assertExactFields(t, reflect.TypeOf(circuit.Circuit{}), "circuit.Signature",
		"NumQubits", "Gates")
	assertExactFields(t, reflect.TypeOf(circuit.Gate{}), "circuit.Signature",
		"Kind", "Qubits", "Theta")

	// The route region is keyed by RouteKey, which folds the circuit and
	// device signatures plus every mapping.Options field: the placement
	// name and the full router config (algorithm, lookahead window and
	// decay).
	assertExactFields(t, reflect.TypeOf(mapping.Options{}), "RouteKey",
		"Placement", "Router")
	assertExactFields(t, reflect.TypeOf(mapping.RouterConfig{}), "RouteKey",
		"Algorithm", "Window", "Decay")

	// The snapshot codec struct is pinned for a different failure mode:
	// it is an on-disk gob shape, so a field added to it without a
	// SnapshotVersion bump and a migration entry in migrate.go would
	// silently change the format rather than alias a key.
	assertExactFields(t, reflect.TypeOf(diskSnapshot{}), "the snapshot codec (Save/Load)",
		"Magic", "Version", "KeyVersion", "SMT", "Park", "Slice", "Static")
}

// TestRouteKeyDistinguishesConfigs checks RouteKey injectivity across the
// configuration dimensions and its normalization: configurations that
// WithDefaults maps to the same effective pipeline share a key, every
// other pair differs, and the key carries the key-scheme version plus the
// exact circuit dimensions (the circ-region discipline: a digest
// collision between differently-shaped circuits can never alias).
func TestRouteKeyDistinguishesConfigs(t *testing.T) {
	circ := circuit.New(4)
	circ.H(0).CZ(0, 1).CZ(2, 3)
	seen := map[string]string{}
	record := func(label string, o mapping.Options) {
		k := RouteKey(circ, "dsig", o)
		if prev, ok := seen[k]; ok {
			t.Fatalf("configs %q and %q share route key %q", prev, label, k)
		}
		seen[k] = label
	}
	record("default", mapping.Options{})
	record("snake", mapping.Options{Placement: mapping.PlaceSnake})
	record("degree", mapping.Options{Placement: mapping.PlaceDegree})
	record("lookahead", mapping.Options{Router: mapping.RouterConfig{Algorithm: mapping.RouterLookahead}})
	record("lookahead-w4", mapping.Options{Router: mapping.RouterConfig{Algorithm: mapping.RouterLookahead, Window: 4}})
	record("lookahead-d.25", mapping.Options{Router: mapping.RouterConfig{Algorithm: mapping.RouterLookahead, Decay: 0.25}})

	// Normalization: the zero value, the explicit defaults, and a greedy
	// config with stale lookahead tuning all name the same pipeline.
	def := RouteKey(circ, "dsig", mapping.Options{})
	for label, o := range map[string]mapping.Options{
		"explicit":     {Placement: mapping.PlaceIdentity, Router: mapping.RouterConfig{Algorithm: mapping.RouterGreedy}},
		"stale-tuning": {Router: mapping.RouterConfig{Algorithm: mapping.RouterGreedy, Window: 9, Decay: 0.9}},
	} {
		if k := RouteKey(circ, "dsig", o); k != def {
			t.Fatalf("%s config key %q != default key %q", label, k, def)
		}
	}
	if want := fmt.Sprintf("v%d|", KeyVersion); !strings.HasPrefix(def, want) {
		t.Fatalf("route key %q does not carry version prefix %q", def, want)
	}
	// Distinct circuits and devices must never alias, and the key encodes
	// the exact qubit and gate counts ahead of the digest.
	other := circuit.New(4)
	other.H(0).CZ(0, 1).CZ(2, 3).H(3)
	if RouteKey(other, "dsig", mapping.Options{}) == def || RouteKey(circ, "dsig2", mapping.Options{}) == def {
		t.Fatal("route key ignores the circuit or device identity")
	}
	if want := fmt.Sprintf("v%d|%d|%d|", KeyVersion, circ.NumQubits, len(circ.Gates)); !strings.HasPrefix(def, want) {
		t.Fatalf("route key %q does not encode the exact circuit dimensions %q", def, want)
	}
}

// TestAnalysisMemoSharesAcrossAllocations checks the circ region's
// contract: content-identical circuits (distinct allocations, as produced
// by per-strategy decomposition) share one Analysis, while circuits that
// differ in any content component do not.
func TestAnalysisMemoSharesAcrossAllocations(t *testing.T) {
	build := func() *circuit.Circuit {
		c := circuit.New(4)
		c.H(0).CZ(0, 1).CZ(2, 3).RZ(3, 0.7)
		return c
	}
	ctx := NewContext(1)
	a1 := ctx.Analysis(build())
	a2 := ctx.Analysis(build())
	if a1 != a2 {
		t.Fatal("content-identical circuits must share one cached Analysis")
	}
	other := circuit.New(4)
	other.H(0).CZ(0, 1).CZ(2, 3).RZ(3, 0.8)
	if ctx.Analysis(other) == a1 {
		t.Fatal("distinct circuits must not share an Analysis")
	}
	st := ctx.Stats()[RegionCircuit]
	if st.Hits != 1 || st.Misses != 2 {
		t.Fatalf("circ region stats = %+v, want 1 hit / 2 misses", st)
	}
	// A nil context analyzes directly (no cache probe, no key built).
	var nilCtx *Context
	if nilCtx.Analysis(build()) == nil {
		t.Fatal("nil-context Analysis must still analyze")
	}
}

// TestRouteMemoShares checks the route region's contract: content-
// identical circuits on the same device and options share one routed
// Result across allocations; a different placement, router, circuit or
// device resolves to a different entry; and a nil context still routes.
func TestRouteMemoShares(t *testing.T) {
	build := func() *circuit.Circuit {
		c := circuit.New(9)
		c.H(0).CNOT(0, 8).CZ(3, 5)
		return c
	}
	dev := topology.SquareGrid(9)
	ctx := NewContext(1)
	r1, err := ctx.Route(build(), dev, mapping.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := ctx.Route(build(), dev, mapping.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatal("content-identical route requests must share one cached Result")
	}
	if r1.SwapCount == 0 {
		t.Fatal("corner-to-corner CNOT should have inserted swaps")
	}
	r3, err := ctx.Route(build(), dev, mapping.Options{Placement: mapping.PlaceSnake})
	if err != nil {
		t.Fatal(err)
	}
	if r3 == r1 {
		t.Fatal("different placements must not share a route entry")
	}
	r4, err := ctx.Route(build(), dev, mapping.Options{Router: mapping.RouterConfig{Algorithm: mapping.RouterLookahead}})
	if err != nil {
		t.Fatal(err)
	}
	if r4 == r1 {
		t.Fatal("different routers must not share a route entry")
	}
	st := ctx.Stats()[RegionRoute]
	if st.Hits != 1 || st.Misses != 3 {
		t.Fatalf("route region stats = %+v, want 1 hit / 3 misses", st)
	}
	var nilCtx *Context
	if r, err := nilCtx.Route(build(), dev, mapping.Options{}); err != nil || r == nil {
		t.Fatalf("nil-context Route must still route: %v", err)
	}
	// An unroutable request must error and never cache.
	wide := circuit.New(16)
	wide.H(0)
	if _, err := ctx.Route(wide, topology.SquareGrid(9), mapping.Options{}); err == nil {
		t.Fatal("oversized circuit must fail to route")
	}
}

// TestDeviceSignatureCoversCoords is the regression test for the v1
// signature gap: staggerOffset reads qubit coordinates, so two devices
// identical except for coordinates must not share parking cache entries.
func TestDeviceSignatureCoversCoords(t *testing.T) {
	a := topology.Linear(4)
	b := topology.Linear(4)
	if DeviceSignature(a) != DeviceSignature(b) {
		t.Fatal("identical devices must share a signature")
	}
	b.Coords[2] = topology.Coord{Row: 5, Col: 7}
	if DeviceSignature(a) == DeviceSignature(b) {
		t.Fatal("devices differing only in coordinates must not share a signature")
	}
}
