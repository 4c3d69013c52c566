package circuit

// Dependency analysis. Two gates depend on each other when they share a
// qubit; the earlier one (program order) must complete first. This induces
// the layered view of a circuit ("circuit slicing", §V-B2) and the
// critical-path criticality used by the noise-aware queueing scheduler
// (§V-B6).
//
// The methods on Circuit below are the straightforward reference
// implementations. Hot paths use Analyze, which computes the same
// structures once, flat, and shares them (equivalence is pinned by
// property test in analysis_test.go).

// ASAPLayers partitions gate indices into as-soon-as-possible layers: a gate
// is placed one layer after the latest layer among the gates it depends on.
// The result is the standard "sliced" circuit; len(result) is the depth.
func (c *Circuit) ASAPLayers() [][]int {
	lastLayer := make([]int, c.NumQubits) // per qubit: layer of its last gate + 1
	for i := range lastLayer {
		lastLayer[i] = 0
	}
	var layers [][]int
	for idx, g := range c.Gates {
		layer := 0
		for _, q := range g.Qubits {
			if lastLayer[q] > layer {
				layer = lastLayer[q]
			}
		}
		for len(layers) <= layer {
			layers = append(layers, nil)
		}
		layers[layer] = append(layers[layer], idx)
		for _, q := range g.Qubits {
			lastLayer[q] = layer + 1
		}
	}
	return layers
}

// Depth returns the number of ASAP layers.
func (c *Circuit) Depth() int { return len(c.ASAPLayers()) }

// Criticality returns, for each gate index, the length (in gates) of the
// longest dependency chain starting at that gate, itself included. Gates
// with larger criticality lie on the program critical path and are
// scheduled first by the queueing scheduler.
func (c *Circuit) Criticality() []int {
	n := len(c.Gates)
	crit := make([]int, n)
	// nextOnQubit[q] tracks, while scanning backwards, the criticality of
	// the next gate touching q.
	nextCrit := make([]int, c.NumQubits)
	for i := n - 1; i >= 0; i-- {
		g := c.Gates[i]
		best := 0
		for _, q := range g.Qubits {
			if nextCrit[q] > best {
				best = nextCrit[q]
			}
		}
		crit[i] = best + 1
		for _, q := range g.Qubits {
			nextCrit[q] = crit[i]
		}
	}
	return crit
}

// Frontier iterates a circuit in dependency order while letting the caller
// postpone ready gates — exactly the queueing discipline of Algorithm 1. At
// any point, Ready() lists the gates whose per-qubit predecessors have all
// been issued; the scheduler issues a subset and the rest remain ready in
// later rounds.
//
// A Frontier is a cheap resettable view over an Analysis: the per-qubit
// gate streams live in the shared immutable Analysis, and only the cursor
// state (next position per qubit, issued flags, the reusable Ready buffer)
// belongs to the Frontier. NewFrontier allocates that state once; Reset
// rewinds it for another pass without allocating.
type Frontier struct {
	a      *Analysis
	next   []int32 // per qubit: position in its QubitStream
	issued []bool
	ready  []int // reusable Ready result buffer
	remain int
}

// NewFrontier builds (analyzes c and) returns a frontier at the start of c.
// Prefer Analysis.NewFrontier when an analysis is already at hand.
func NewFrontier(c *Circuit) *Frontier { return Analyze(c).NewFrontier() }

// NewFrontier returns a frontier over a's circuit with every gate
// unissued. Multiple frontiers over one shared Analysis are independent.
func (a *Analysis) NewFrontier() *Frontier {
	return &Frontier{
		a:      a,
		next:   make([]int32, a.NumQubits),
		issued: make([]bool, a.NumGates),
		ready:  make([]int, 0, 16),
		remain: a.NumGates,
	}
}

// Reset rewinds the frontier to the start of the circuit, reusing its
// buffers (no allocation).
func (f *Frontier) Reset() {
	for i := range f.next {
		f.next[i] = 0
	}
	for i := range f.issued {
		f.issued[i] = false
	}
	f.remain = f.a.NumGates
}

// Ready returns the indices of gates whose dependencies are satisfied, in
// ascending program order. The returned slice is the frontier's reusable
// buffer: it is valid (and may be reordered in place by the caller) until
// the next Ready call. Ready performs no allocation beyond growing that
// buffer to the widest frontier seen.
//
//fastsc:hotpath every strategy drains the frontier once per slice; the zero-alloc contract is pinned by TestFrontierReadyZeroAlloc
func (f *Frontier) Ready() []int {
	ready := f.ready[:0]
	a := f.a
	for q := 0; q < a.NumQubits; q++ {
		s := a.stream[a.streamOff[q]:a.streamOff[q+1]]
		pos := f.next[q]
		if int(pos) >= len(s) {
			continue
		}
		idx := s[pos]
		q0, q1 := a.gq[idx][0], a.gq[idx][1]
		if q1 >= 0 {
			// Two-qubit gate: it heads two streams, so emit it only from
			// its smaller operand (dedup without a map), and only when it
			// is also the head on the larger one.
			lo, hi := q0, q1
			if lo > hi {
				lo, hi = hi, lo
			}
			if int32(q) != lo {
				continue
			}
			hs := a.stream[a.streamOff[hi]:a.streamOff[hi+1]]
			if int(f.next[hi]) >= len(hs) || hs[f.next[hi]] != idx {
				continue
			}
		}
		ready = append(ready, int(idx))
	}
	sortInts(ready)
	f.ready = ready
	return ready
}

// Issue marks gate idx as executed. It panics if the gate is not ready.
func (f *Frontier) Issue(idx int) {
	if f.issued[idx] {
		panic("circuit: gate issued twice")
	}
	a := f.a
	for _, q := range a.gq[idx] {
		if q < 0 {
			continue
		}
		s := a.stream[a.streamOff[q]:a.streamOff[q+1]]
		if int(f.next[q]) >= len(s) || s[f.next[q]] != int32(idx) {
			panic("circuit: issuing gate with unmet dependencies")
		}
	}
	for _, q := range a.gq[idx] {
		if q >= 0 {
			f.next[q]++
		}
	}
	f.issued[idx] = true
	f.remain--
}

// Done reports whether every gate has been issued.
func (f *Frontier) Done() bool { return f.remain == 0 }

// Remaining returns the number of unissued gates.
func (f *Frontier) Remaining() int { return f.remain }

func sortInts(xs []int) {
	// insertion sort; frontiers are small.
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
