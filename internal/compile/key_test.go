package compile

import (
	"fmt"
	"math"
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

// assertExactFields fails unless typ has exactly the named fields. Every
// key/signature in this package was written against a specific struct
// layout; when a field is added, this guard forces the author to fold it
// into the key (or consciously exclude it), update the expected list and
// bump SnapshotVersion — otherwise the new field would silently alias
// cache entries across configurations that differ only in it.
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
			"update this list, and bump compile.SnapshotVersion.",
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

	// The snapshot codec structs are pinned for a different failure mode:
	// they are on-disk gob shapes, and gob fills a field that an older
	// file lacks with its zero value, so a field added to any of them
	// without a SnapshotVersion bump would load silently wrong rather
	// than alias a key. SliceSolution is the value of two sections
	// (Slice and Palette), persistedSMT of one (SMT).
	const codec = "the snapshot codec (Save/Load)"
	assertExactFields(t, reflect.TypeOf(diskSnapshot{}), codec,
		"Magic", "Version", "SMT", "Park", "Slice", "Palette")
	assertExactFields(t, reflect.TypeOf(SliceSolution{}), codec,
		"Coloring", "Deferred", "NumColors", "Assign", "Delta")
	assertExactFields(t, reflect.TypeOf(persistedSMT{}), codec,
		"Xs", "Delta", "ErrMsg", "Infeasible")
}

// TestRouteKeyDistinguishesConfigs checks RouteKey injectivity across the
// configuration dimensions and its normalization: configurations that
// WithDefaults maps to the same effective pipeline share a key, every
// other pair differs, and the key leads with the exact circuit dimensions
// (the circ-region discipline: a digest collision between
// differently-shaped circuits can never alias).
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
	// Distinct circuits and devices must never alias, and the key encodes
	// the exact qubit and gate counts ahead of the digest.
	other := circuit.New(4)
	other.H(0).CZ(0, 1).CZ(2, 3).H(3)
	if RouteKey(other, "dsig", mapping.Options{}) == def || RouteKey(circ, "dsig2", mapping.Options{}) == def {
		t.Fatal("route key ignores the circuit or device identity")
	}
	if want := fmt.Sprintf("%d|%d|", circ.NumQubits, len(circ.Gates)); !strings.HasPrefix(def, want) {
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
	// The zero (cacheless) context analyzes directly.
	if (&Context{}).Analysis(build()) == nil {
		t.Fatal("zero-context Analysis must still analyze")
	}
}

// TestRouteMemoShares checks the route region's contract: content-
// identical circuits on the same device and options share one routed
// Result across allocations; a different placement, router, circuit or
// device resolves to a different entry; and the zero context still routes.
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
	if r, err := (&Context{}).Route(build(), dev, mapping.Options{}); err != nil || r == nil {
		t.Fatalf("zero-context Route must still route: %v", err)
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

// TestSMTKeyFormatStable pins SMTKey's bytes to the fmt encoding it was
// first written with. SMT keys are persisted in snapshots without a
// version prefix, so any drift would silently turn every persisted smt
// entry into a miss. The cases cover signed zeros, NaNs, infinities,
// negative and extreme k, and random bit patterns.
func TestSMTKeyFormatStable(t *testing.T) {
	ref := func(k int, cfg smt.Config) string {
		return fmt.Sprintf("%d|%x|%x|%x|%x", k,
			math.Float64bits(cfg.Lo), math.Float64bits(cfg.Hi),
			math.Float64bits(cfg.Alpha), math.Float64bits(cfg.MinDelta))
	}
	check := func(k int, cfg smt.Config) {
		t.Helper()
		if got, want := SMTKey(k, cfg), ref(k, cfg); got != want {
			t.Fatalf("SMTKey(%d, %+v) = %q, want %q", k, cfg, got, want)
		}
	}
	specials := []float64{
		0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		-0.2, 4.5, -1e300, math.SmallestNonzeroFloat64, math.MaxFloat64,
	}
	ks := []int{0, 1, 2, 17, -1, -42, math.MaxInt64, math.MinInt64}
	for _, k := range ks {
		for i, f := range specials {
			g := specials[(i+3)%len(specials)]
			check(k, smt.Config{Lo: f, Hi: g, Alpha: -f, MinDelta: g})
			check(k, smt.Config{Lo: g, Hi: f})
		}
	}
	rng := rand.New(rand.NewSource(1))
	bits := func() float64 { return math.Float64frombits(rng.Uint64()) }
	for i := 0; i < 320; i++ {
		check(int(rng.Uint64()), smt.Config{Lo: bits(), Hi: bits(), Alpha: bits(), MinDelta: bits()})
	}
}
