package circuit

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// Property tests pinning circuit.Analysis to the reference implementations
// it replaces on the hot path: Layers to ASAPLayers, Criticality to
// Circuit.Criticality, and the CSR-backed Frontier to a test-local replica
// of the old map-based frontier, driven with identical postponement
// choices.

func TestAnalysisLayersEqualASAPLayers(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := randomCircuit(rng, 2+rng.Intn(6), rng.Intn(40))
		a := Analyze(c)
		want := c.ASAPLayers()
		if a.Depth() != len(want) {
			return false
		}
		got := a.Layers()
		return reflect.DeepEqual(got, want) || (len(got) == 0 && len(want) == 0)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestAnalysisCriticalityEqualsReference(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := randomCircuit(rng, 2+rng.Intn(6), rng.Intn(40))
		a := Analyze(c)
		want := c.Criticality()
		got := a.Criticality()
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if int(got[i]) != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestAnalysisQubitStreamsMatchGateOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		c := randomCircuit(rng, 2+rng.Intn(6), rng.Intn(40))
		a := Analyze(c)
		want := make([][]int32, c.NumQubits)
		for i, g := range c.Gates {
			for _, q := range g.Qubits {
				want[q] = append(want[q], int32(i))
			}
		}
		for q := 0; q < c.NumQubits; q++ {
			got := a.QubitStream(q)
			if len(got) != len(want[q]) {
				t.Fatalf("qubit %d stream %v, want %v", q, got, want[q])
			}
			for i := range got {
				if got[i] != want[q][i] {
					t.Fatalf("qubit %d stream %v, want %v", q, got, want[q])
				}
			}
		}
	}
}

// refFrontier is the old map-based frontier, kept test-side as the
// behavioral reference for the CSR rewrite.
type refFrontier struct {
	c        *Circuit
	perQubit [][]int
	nextIdx  []int
	issued   []bool
	remain   int
}

func newRefFrontier(c *Circuit) *refFrontier {
	f := &refFrontier{
		c:        c,
		perQubit: make([][]int, c.NumQubits),
		nextIdx:  make([]int, c.NumQubits),
		issued:   make([]bool, len(c.Gates)),
		remain:   len(c.Gates),
	}
	for i, g := range c.Gates {
		for _, q := range g.Qubits {
			f.perQubit[q] = append(f.perQubit[q], i)
		}
	}
	return f
}

func (f *refFrontier) Ready() []int {
	var ready []int
	seen := make(map[int]bool)
	for q := 0; q < f.c.NumQubits; q++ {
		if f.nextIdx[q] >= len(f.perQubit[q]) {
			continue
		}
		idx := f.perQubit[q][f.nextIdx[q]]
		if seen[idx] {
			continue
		}
		seen[idx] = true
		g := f.c.Gates[idx]
		ok := true
		for _, qq := range g.Qubits {
			if f.nextIdx[qq] >= len(f.perQubit[qq]) || f.perQubit[qq][f.nextIdx[qq]] != idx {
				ok = false
				break
			}
		}
		if ok {
			ready = append(ready, idx)
		}
	}
	sortInts(ready)
	return ready
}

func (f *refFrontier) Issue(idx int) {
	g := f.c.Gates[idx]
	for _, q := range g.Qubits {
		f.nextIdx[q]++
	}
	f.issued[idx] = true
	f.remain--
}

func (f *refFrontier) Done() bool { return f.remain == 0 }

// TestFrontierMatchesReferenceUnderPostponement drives the CSR frontier and
// the old map-based frontier with identical random subset choices and
// requires identical Ready sets every round.
func TestFrontierMatchesReferenceUnderPostponement(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := randomCircuit(rng, 2+rng.Intn(6), 1+rng.Intn(40))
		f := NewFrontier(c)
		ref := newRefFrontier(c)
		for rounds := 0; !f.Done() || !ref.Done(); rounds++ {
			if rounds > 1000 {
				return false
			}
			got := f.Ready()
			want := ref.Ready()
			if !reflect.DeepEqual(append([]int(nil), got...), want) {
				return false
			}
			if len(got) == 0 {
				return false // deadlock
			}
			// Issue an identical random nonempty subset on both.
			k := 1 + rng.Intn(len(got))
			picks := append([]int(nil), got[:k]...)
			for _, idx := range picks {
				f.Issue(idx)
				ref.Issue(idx)
			}
		}
		return f.Remaining() == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestFrontierResetReplaysIdentically checks that Reset rewinds a frontier
// to a state indistinguishable from a fresh one.
func TestFrontierResetReplaysIdentically(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	c := randomCircuit(rng, 5, 30)
	f := NewFrontier(c)
	var first [][]int
	for !f.Done() {
		ready := f.Ready()
		first = append(first, append([]int(nil), ready...))
		for _, idx := range ready {
			f.Issue(idx)
		}
	}
	f.Reset()
	var second [][]int
	for !f.Done() {
		ready := f.Ready()
		second = append(second, append([]int(nil), ready...))
		for _, idx := range ready {
			f.Issue(idx)
		}
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("replay after Reset diverged:\nfirst  %v\nsecond %v", first, second)
	}
}

// TestFrontierReadyZeroAlloc is the alloc-count regression test for the
// old Ready(): it allocated a map[int]bool plus a fresh result slice per
// call. The CSR rewrite must drain a circuit with zero allocations once
// its reusable buffer has grown.
func TestFrontierReadyZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	c := randomCircuit(rng, 8, 120)
	f := NewFrontier(c)
	// Warm the ready buffer to the widest frontier.
	for !f.Done() {
		for _, idx := range f.Ready() {
			f.Issue(idx)
		}
	}
	allocs := testing.AllocsPerRun(10, func() {
		f.Reset()
		for !f.Done() {
			ready := f.Ready()
			for _, idx := range ready {
				f.Issue(idx)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("draining the frontier allocated %v times per run, want 0", allocs)
	}
}

// TestAnalysisSignatureContent checks the signature distinguishes every
// content component and ignores allocation identity.
func TestAnalysisSignatureContent(t *testing.T) {
	base := func() *Circuit { c := New(3); c.H(0).CZ(0, 1).RZ(2, 0.5); return c }
	if base().Signature() != base().Signature() {
		t.Fatal("content-identical circuits must share a signature")
	}
	a := Analyze(base())
	if a.Sig != base().Signature() {
		t.Fatal("Analysis.Sig must carry the circuit signature")
	}
	mutants := []*Circuit{
		func() *Circuit { c := New(4); c.H(0).CZ(0, 1).RZ(2, 0.5); return c }(),  // qubit count
		func() *Circuit { c := New(3); c.X(0).CZ(0, 1).RZ(2, 0.5); return c }(),  // kind
		func() *Circuit { c := New(3); c.H(0).CZ(0, 2).RZ(2, 0.5); return c }(),  // operand
		func() *Circuit { c := New(3); c.H(0).CZ(1, 0).RZ(2, 0.5); return c }(),  // operand order
		func() *Circuit { c := New(3); c.H(0).CZ(0, 1).RZ(2, 0.25); return c }(), // angle
		func() *Circuit { c := New(3); c.H(0).CZ(0, 1); return c }(),             // gate count
	}
	sig := base().Signature()
	for i, m := range mutants {
		if m.Signature() == sig {
			t.Fatalf("mutant %d shares the base signature", i)
		}
	}
}

// TestAnalysisInteractionCounts pins the exported interaction counts to a
// direct count over the gate list, and Operands to the Gate operand
// slices, on randomized circuits.
func TestAnalysisInteractionCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for iter := 0; iter < 50; iter++ {
		c := randomCircuit(rng, 2+rng.Intn(6), rng.Intn(40))
		a := Analyze(c)
		want := make([]int32, c.NumQubits)
		for i, g := range c.Gates {
			if len(g.Qubits) == 2 {
				want[g.Qubits[0]]++
				want[g.Qubits[1]]++
			}
			q0, q1 := a.Operands(i)
			if q0 != g.Qubits[0] {
				t.Fatalf("Operands(%d) first = %d, want %d", i, q0, g.Qubits[0])
			}
			if len(g.Qubits) == 2 {
				if q1 != g.Qubits[1] {
					t.Fatalf("Operands(%d) second = %d, want %d", i, q1, g.Qubits[1])
				}
			} else if q1 != -1 {
				t.Fatalf("Operands(%d) second = %d for a 1q gate, want -1", i, q1)
			}
		}
		got := a.InteractionCounts()
		if len(got) != len(want) {
			t.Fatalf("InteractionCounts length %d, want %d", len(got), len(want))
		}
		for q := range want {
			if got[q] != want[q] {
				t.Fatalf("qubit %d interaction count %d, want %d", q, got[q], want[q])
			}
		}
	}
}
