package compile

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"fastsc/internal/circuit"
	"fastsc/internal/mapping"
	"fastsc/internal/phys"
	"fastsc/internal/smt"
	"fastsc/internal/topology"
)

// Cache regions. Keeping them as named constants makes hit/miss reports
// and tests self-describing.
const (
	// RegionSMT holds smt.Solve results (including infeasibility verdicts)
	// keyed by (k, band, alpha, minDelta).
	RegionSMT = "smt"
	// RegionSlice holds per-slice coloring/frequency solutions keyed by the
	// exact sorted vertex set of the active interaction subgraph.
	RegionSlice = "slice"
	// RegionXtalk holds crosstalk graphs keyed by (device, distance).
	RegionXtalk = "xtalk"
	// RegionStatic holds program-independent frequency palettes (Baseline
	// S/G calibration tables) keyed by system signature.
	RegionStatic = "static"
	// RegionParking holds parking-frequency assignments keyed by system
	// signature.
	RegionParking = "park"
	// RegionCircuit holds analyzed-circuit IRs (circuit.Analysis: CSR
	// per-qubit gate streams, flat ASAP layers, criticality) keyed by the
	// circuit content signature, so every strategy in a batch shares one
	// analysis per circuit. Process-local: an analysis rebuilds in
	// microseconds, which is what loading one from a snapshot would cost.
	RegionCircuit = "circ"
	// RegionRoute holds routed circuits (mapping.Result) keyed by
	// (circuit signature, device signature, placement, router config), so
	// the 5–7 strategies of a batch route each circuit once instead of
	// once per strategy. Process-local: routing the Fig 9 set again is
	// faster than serving it from a snapshot.
	RegionRoute = "route"
)

// KeyVersion is the version of the cache-key scheme, folded into SliceKey
// and checked against snapshots on load so that keys built by an older
// scheme can never be read back. Bump it whenever any key or signature
// format changes.
//
// History: v1 reduced the active vertex set to a 64-bit FNV digest (a
// collision would silently serve the wrong frequency assignment) and
// omitted device coordinates from DeviceSignature (the parking stagger
// reads them). v2 encodes the exact vertex set and hashes coordinates.
// v3 accompanies the dense phys.System rewrite: SystemSignature reads the
// per-coupler slice (same values, Edges() order) and the circ region was
// added, keyed by the circuit content signature. v4 accompanies the
// layout/routing subsystem: the route region was added, keyed by
// (circuit signature, device signature, mapping.Options), and RouteKey
// normalizes the options (WithDefaults) before encoding. v5 accompanies
// component-decomposed slice solving: the slice region additionally holds
// per-component solutions under SliceComponentKey (a distinct "c"-tagged
// shape that can never alias a whole-slice key), so snapshots written
// before the decomposition are rejected wholesale. v6 accompanies the
// tiered warm-cache subsystem: snapshots from the previous key generation
// are no longer rejected wholesale — Load re-keys them through the
// registered migration step (see migrate.go) instead. Component keys are
// no longer written since the slice solver went back to solving each
// missed slice whole, and route and circ entries are no longer persisted;
// no key changed, so the version stays 6, and those entries in older v6
// snapshots are ignored on load.
const KeyVersion = 6

type hasher struct{ h uint64 }

func newHasher() *hasher { return &hasher{h: 14695981039346656037} } // FNV-64a offset

func (h *hasher) bytes(p []byte) {
	for _, b := range p {
		h.h ^= uint64(b)
		h.h *= 1099511628211 // FNV-64a prime
	}
}

func (h *hasher) u64(v uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	h.bytes(buf[:])
}

func (h *hasher) f64(v float64) { h.u64(math.Float64bits(v)) }

func (h *hasher) str(s string) {
	h.u64(uint64(len(s)))
	h.bytes([]byte(s))
}

// DeviceSignature returns a stable content hash of a device layout: its
// name, qubit count, coupler list and qubit coordinates (the parking
// stagger pattern depends on them). Two Device values describing the same
// chip hash identically even when they are distinct allocations, which is
// what lets independently constructed systems share cache entries.
func DeviceSignature(dev *topology.Device) string {
	h := newHasher()
	h.str(dev.Name)
	h.u64(uint64(dev.Qubits))
	for _, e := range dev.Edges() { // Edges() is sorted by (U, V)
		h.u64(uint64(e.U))
		h.u64(uint64(e.V))
	}
	h.u64(uint64(len(dev.Coords)))
	for q := 0; q < dev.Qubits; q++ {
		if c, ok := dev.Coords[q]; ok {
			h.u64(uint64(q))
			h.u64(uint64(int64(c.Row)))
			h.u64(uint64(int64(c.Col)))
		}
	}
	return fmt.Sprintf("%016x", h.h)
}

// SystemSignature returns a stable content hash of a characterized system:
// the device signature plus every transmon's fabrication draw and every
// coupler's bare coupling — everything the scheduler's frequency math
// depends on. (phys.System.Params is deliberately not hashed: every Params
// field the compilers read is copied into the Transmon draws and the dense
// Coupling slice by phys.NewSystem; see the key-drift guard test.) Systems
// sampled with the same (device, params, seed) hash identically across
// allocations. The dense Coupling slice is indexed by coupler id, i.e.
// Edges() order, so hashing it in index order preserves the signature the
// old map-based iteration produced.
func SystemSignature(sys *phys.System) string {
	h := newHasher()
	h.str(DeviceSignature(sys.Device))
	for _, t := range sys.Qubits {
		h.f64(t.OmegaMax)
		h.f64(t.EC)
		h.f64(t.Asymmetry)
		h.f64(t.T1)
		h.f64(t.T2)
	}
	for _, g := range sys.Coupling {
		h.f64(g)
	}
	return fmt.Sprintf("%016x", h.h)
}

// SMTKey is the cache key of one smt.Solve invocation. The solver is a pure
// function of exactly these inputs; the key is an exact encoding, not a
// hash, so distinct configurations can never collide.
func SMTKey(k int, cfg smt.Config) string {
	return fmt.Sprintf("%d|%x|%x|%x|%x",
		k,
		math.Float64bits(cfg.Lo), math.Float64bits(cfg.Hi),
		math.Float64bits(cfg.Alpha), math.Float64bits(cfg.MinDelta))
}

// XtalkKey is the cache key of a crosstalk-graph construction.
func XtalkKey(dev *topology.Device, distance int) string {
	return fmt.Sprintf("%s|%d", DeviceSignature(dev), distance)
}

// RouteKey is the cache key of one layout/routing invocation: the key
// version, the circuit identity (exact qubit and gate counts plus the
// content signature — the same discipline as the circ region, so a
// hypothetical digest collision between differently-shaped circuits can
// never alias), the device signature, and the normalized mapping options
// (placement, router algorithm, lookahead window and decay). Placement
// and algorithm names are fixed identifiers without '|', the signatures
// are fixed-width hex and the numerics are exact encodings, so distinct
// configurations can never collide. The reflection guard in key_test.go
// pins mapping.Options and mapping.RouterConfig to this key.
func RouteKey(circ *circuit.Circuit, devSig string, opts mapping.Options) string {
	opts = opts.WithDefaults()
	return fmt.Sprintf("v%d|%d|%d|%s|%s|%s|%s|%d|%x",
		KeyVersion, circ.NumQubits, len(circ.Gates), circ.Signature(), devSig,
		opts.Placement, opts.Router.Algorithm, opts.Router.Window,
		math.Float64bits(opts.Router.Decay))
}

// SliceKey returns the canonical cache key of one slice-solve: the key
// version, the system signature (which fixes the crosstalk graph's coupler
// indexing and the interaction band), the crosstalk distance and color
// budget, and the exact sorted vertex set of the active interaction
// subgraph, delta-encoded in hex. Vertex ids index the device's coupler
// list, so the same simultaneous gate pattern maps to the same key in
// every slice of every job on that system.
//
// The encoding is injective: the fixed-arity '|'-separated header cannot
// alias (the signature is fixed-width hex, the ints are decimal), and two
// distinct sorted vertex lists differ in some ','-separated delta token.
// Unlike the v1 key — a 64-bit digest of the vertex set — no pair of
// distinct slices can ever share a key, so a cache hit is always the right
// frequency assignment.
// Callers on the hot path pass an already-sorted slice, which skips the
// defensive copy; unsorted input is copied and sorted, never mutated.
func SliceKey(sysSig string, distance, budget int, activeVertices []int) string {
	verts := activeVertices
	if !sort.IntsAreSorted(verts) {
		verts = append([]int(nil), activeVertices...)
		sort.Ints(verts)
	}
	var sb strings.Builder
	sb.Grow(len(sysSig) + 18 + 3*len(verts))
	fmt.Fprintf(&sb, "v%d|%s|%d|%d|", KeyVersion, sysSig, distance, budget)
	prev := 0
	for i, v := range verts {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(strconv.FormatInt(int64(v-prev), 16))
		prev = v
	}
	return sb.String()
}

// CircuitKey is the cache key of one analyzed circuit (the circ region):
// the exact qubit and gate counts plus the 128-bit content signature. The
// cheap dimensions are encoded exactly — the same discipline as SliceKey
// and RouteKey — so a hypothetical digest collision between
// differently-shaped circuits can never alias.
func CircuitKey(circ *circuit.Circuit, sig string) string {
	return fmt.Sprintf("%d|%d|%s", circ.NumQubits, len(circ.Gates), sig)
}
