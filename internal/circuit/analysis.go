package circuit

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Analysis is the analyzed-circuit IR: every derived structure the
// schedulers consume — per-qubit gate streams, ASAP layers, depth,
// criticality and a content signature — computed in one pass and stored
// flat. An Analysis is immutable after Analyze returns and is shared
// read-only between compilation jobs (the compile cache memoizes one per
// circuit signature), so callers must never modify the slices it hands
// out.
//
// Layout: the per-qubit gate streams and the ASAP layers are CSR-style —
// one flat []int32 of gate indices plus an offsets slice — replacing the
// ragged [][]int the per-compile analysis used to rebuild. Gate indices
// ascend within every qubit stream (program order) and within every layer.
type Analysis struct {
	// NumQubits and NumGates mirror the analyzed circuit.
	NumQubits int
	NumGates  int
	// Sig is the circuit's content signature (Circuit.Signature), the
	// compile cache key under which this analysis is shared.
	Sig string

	// streamOff/stream: CSR per-qubit gate streams. Qubit q's gates, in
	// program order, are stream[streamOff[q]:streamOff[q+1]].
	streamOff []int32
	stream    []int32

	// layerOff/layer: CSR ASAP layers. Layer l's gate indices, ascending,
	// are layer[layerOff[l]:layerOff[l+1]]; len(layerOff)-1 is the depth.
	layerOff []int32
	layer    []int32

	// crit[i] is the length (in gates) of the longest dependency chain
	// starting at gate i, itself included (the queueing scheduler's
	// priority).
	crit []int32

	// gq[i] holds gate i's operand qubits; gq[i][1] is -1 for single-qubit
	// gates. The frontier's head checks read these instead of chasing the
	// Gate.Qubits slices.
	gq [][2]int32

	// inter[q] counts the two-qubit gates touching qubit q — the
	// interaction degree the degree-matching placement reads.
	inter []int32
}

// Analyze computes the full dependency analysis of c. The result is
// immutable; compute it once per circuit and share it (the compile cache
// does, keyed by c.Signature()).
func Analyze(c *Circuit) *Analysis { return AnalyzeWithSignature(c, c.Signature()) }

// AnalyzeWithSignature is Analyze for callers that already computed the
// content signature (the compile cache key is derived from it before the
// miss path runs), sparing a second hash pass over the gate list. sig must
// equal c.Signature().
func AnalyzeWithSignature(c *Circuit, sig string) *Analysis {
	n := len(c.Gates)
	a := &Analysis{
		NumQubits: c.NumQubits,
		NumGates:  n,
		Sig:       sig,
		streamOff: make([]int32, c.NumQubits+1),
		stream:    make([]int32, 0),
		crit:      make([]int32, n),
		gq:        make([][2]int32, n),
		inter:     make([]int32, c.NumQubits),
	}

	// Operand table + stream counting pass.
	total := 0
	for i, g := range c.Gates {
		a.gq[i][0] = int32(g.Qubits[0])
		a.gq[i][1] = -1
		if len(g.Qubits) == 2 {
			a.gq[i][1] = int32(g.Qubits[1])
			a.inter[g.Qubits[0]]++
			a.inter[g.Qubits[1]]++
		}
		for _, q := range g.Qubits {
			a.streamOff[q+1]++
			total++
		}
	}
	for q := 0; q < c.NumQubits; q++ {
		a.streamOff[q+1] += a.streamOff[q]
	}
	a.stream = make([]int32, total)
	fill := make([]int32, c.NumQubits)
	for i, g := range c.Gates {
		for _, q := range g.Qubits {
			a.stream[a.streamOff[q]+fill[q]] = int32(i)
			fill[q]++
		}
	}

	// ASAP layering: a gate lands one layer after the latest layer among
	// the gates it depends on (fill reused as the per-qubit "layer of the
	// last gate + 1" cursor).
	for q := range fill {
		fill[q] = 0
	}
	layerOf := make([]int32, n)
	depth := int32(0)
	for i, g := range c.Gates {
		l := int32(0)
		for _, q := range g.Qubits {
			if fill[q] > l {
				l = fill[q]
			}
		}
		layerOf[i] = l
		if l+1 > depth {
			depth = l + 1
		}
		for _, q := range g.Qubits {
			fill[q] = l + 1
		}
	}
	a.layerOff = make([]int32, depth+1)
	for _, l := range layerOf {
		a.layerOff[l+1]++
	}
	for l := int32(0); l < depth; l++ {
		a.layerOff[l+1] += a.layerOff[l]
	}
	a.layer = make([]int32, n)
	cursor := make([]int32, depth)
	for i, l := range layerOf { // ascending i -> ascending within layers
		a.layer[a.layerOff[l]+cursor[l]] = int32(i)
		cursor[l]++
	}

	// Criticality: backward pass; fill reused as the per-qubit "criticality
	// of the next gate touching q" tracker.
	for q := range fill {
		fill[q] = 0
	}
	for i := n - 1; i >= 0; i-- {
		best := int32(0)
		for _, q := range c.Gates[i].Qubits {
			if fill[q] > best {
				best = fill[q]
			}
		}
		a.crit[i] = best + 1
		for _, q := range c.Gates[i].Qubits {
			fill[q] = a.crit[i]
		}
	}
	return a
}

// Depth returns the number of ASAP layers.
func (a *Analysis) Depth() int { return len(a.layerOff) - 1 }

// Layer returns the gate indices of ASAP layer l, ascending, as a shared
// slice of the analysis — callers must not modify it.
func (a *Analysis) Layer(l int) []int32 {
	return a.layer[a.layerOff[l]:a.layerOff[l+1]]
}

// Layers materializes the ASAP layers as [][]int (a fresh copy, convenient
// for tests and reports; hot paths should iterate Layer).
func (a *Analysis) Layers() [][]int {
	out := make([][]int, a.Depth())
	for l := range out {
		src := a.Layer(l)
		dst := make([]int, len(src))
		for i, g := range src {
			dst[i] = int(g)
		}
		out[l] = dst
	}
	return out
}

// QubitStream returns the gate indices touching qubit q in program order,
// as a shared slice of the analysis — callers must not modify it.
func (a *Analysis) QubitStream(q int) []int32 {
	return a.stream[a.streamOff[q]:a.streamOff[q+1]]
}

// Criticality returns the per-gate criticality, shared read-only.
func (a *Analysis) Criticality() []int32 { return a.crit }

// Operands returns gate i's operand qubits; q1 is -1 for single-qubit
// gates. Routers walk the gate list through this flat table instead of
// chasing the Gate.Qubits slices.
func (a *Analysis) Operands(i int) (q0, q1 int) {
	return int(a.gq[i][0]), int(a.gq[i][1])
}

// InteractionCounts returns, per qubit, the number of two-qubit gates
// touching it — the circuit's interaction degree. The degree-matching
// placement seats high-interaction logical qubits on high-degree physical
// qubits using it. Shared read-only.
func (a *Analysis) InteractionCounts() []int32 { return a.inter }

// ApproxSize reports the approximate in-memory footprint in bytes; the
// compile cache's size-aware eviction weighs analyses by it.
func (a *Analysis) ApproxSize() int {
	return 4*(len(a.streamOff)+len(a.stream)+len(a.layerOff)+len(a.layer)+len(a.crit)+len(a.inter)) +
		8*len(a.gq) + len(a.Sig) + 96
}

// Signature returns a stable content hash of the circuit: qubit count plus
// every gate's kind, operands and angle — exactly the inputs the dependency
// analysis and the schedulers read. Content-identical circuits hash
// identically across allocations, which is what lets every strategy in a
// batch share one Analysis through the compile cache's circ region. The
// digest is 128 bits (two independently seeded FNV-64a streams over the
// same bytes): a colliding pair would silently serve one circuit's
// Analysis to another, so the space is sized to make that as improbable
// as any content-addressed store's.
func (c *Circuit) Signature() string {
	h1 := uint64(14695981039346656037)                      // FNV-64a offset basis
	h2 := uint64(14695981039346656037) ^ 0x9E3779B97F4A7C15 // independently seeded stream
	mix := func(v uint64) {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], v)
		for _, b := range buf {
			h1 ^= uint64(b)
			h1 *= 1099511628211 // FNV-64a prime
			h2 ^= uint64(b)
			h2 *= 1099511628211
		}
	}
	mix(uint64(c.NumQubits))
	mix(uint64(len(c.Gates)))
	for _, g := range c.Gates {
		mix(uint64(g.Kind))
		mix(uint64(len(g.Qubits)))
		for _, q := range g.Qubits {
			mix(uint64(q))
		}
		mix(math.Float64bits(g.Theta))
	}
	return fmt.Sprintf("%016x%016x", h1, h2)
}
