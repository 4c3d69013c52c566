package circuit

import (
	"testing"
)

// unitary4 multiplies out a circuit over exactly two qubits {0, 1} into its
// 4×4 unitary (qubit 0 is the high-order bit).
func unitary4(t *testing.T, c *Circuit) Mat4 {
	t.Helper()
	if c.NumQubits != 2 {
		t.Fatalf("unitary4 needs a 2-qubit circuit, got %d", c.NumQubits)
	}
	u := Identity4()
	id := Matrix1(I, 0)
	for _, g := range c.Gates {
		var m Mat4
		if g.Kind.IsTwoQubit() {
			m = Matrix2Q(g.Kind)
			if g.Qubits[0] == 1 { // reversed operand order
				m = Swap4(m)
			}
		} else {
			u1 := Matrix1(g.Kind, g.Theta)
			if g.Qubits[0] == 0 {
				m = Kron(u1, id)
			} else {
				m = Kron(id, u1)
			}
		}
		u = Mul4(m, u)
	}
	return u
}

func decomposeSingle(t *testing.T, k Kind, qs []int, s DecomposeStrategy) *Circuit {
	t.Helper()
	c := New(2)
	c.Add(Gate{Kind: k, Qubits: qs})
	return Decompose(c, s)
}

func TestCNOTViaCZExact(t *testing.T) {
	d := decomposeSingle(t, CNOT, []int{0, 1}, PureCZ)
	if !EqualUpToGlobalPhase4(unitary4(t, d), Matrix2Q(CNOT), 1e-9) {
		t.Fatal("CNOT via CZ is not unitarily equivalent to CNOT")
	}
	if d.CountKind(CZ) != 1 || d.CountKind(H) != 2 {
		t.Fatalf("CNOT via CZ should be H·CZ·H, got %v", d)
	}
}

func TestCNOTViaISwapExact(t *testing.T) {
	d := decomposeSingle(t, CNOT, []int{0, 1}, PureISwap)
	if !EqualUpToGlobalPhase4(unitary4(t, d), Matrix2Q(CNOT), 1e-9) {
		t.Fatal("CNOT via iSWAP is not unitarily equivalent to CNOT")
	}
	if d.CountKind(ISwap) != 2 {
		t.Fatalf("CNOT via iSWAP should use exactly 2 iSWAPs, got %d", d.CountKind(ISwap))
	}
}

func TestCNOTViaISwapReversedOperands(t *testing.T) {
	d := decomposeSingle(t, CNOT, []int{1, 0}, PureISwap)
	want := Swap4(Matrix2Q(CNOT))
	if !EqualUpToGlobalPhase4(unitary4(t, d), want, 1e-9) {
		t.Fatal("reversed-operand CNOT via iSWAP incorrect")
	}
}

func TestSWAPViaSqrtISwapExact(t *testing.T) {
	d := decomposeSingle(t, SWAP, []int{0, 1}, Hybrid)
	if !EqualUpToGlobalPhase4(unitary4(t, d), Matrix2Q(SWAP), 1e-9) {
		t.Fatal("SWAP via √iSWAP is not unitarily equivalent to SWAP")
	}
	if d.CountKind(SqrtISwap) != 3 {
		t.Fatalf("SWAP via √iSWAP should use exactly 3 √iSWAPs, got %d", d.CountKind(SqrtISwap))
	}
}

func TestSWAPViaCZExact(t *testing.T) {
	d := decomposeSingle(t, SWAP, []int{0, 1}, PureCZ)
	if !EqualUpToGlobalPhase4(unitary4(t, d), Matrix2Q(SWAP), 1e-9) {
		t.Fatal("SWAP via CZ is not unitarily equivalent to SWAP")
	}
	if d.CountKind(CZ) != 3 {
		t.Fatalf("SWAP via CZ should use 3 CZs, got %d", d.CountKind(CZ))
	}
}

func TestSWAPViaISwapExact(t *testing.T) {
	d := decomposeSingle(t, SWAP, []int{0, 1}, PureISwap)
	if !EqualUpToGlobalPhase4(unitary4(t, d), Matrix2Q(SWAP), 1e-9) {
		t.Fatal("SWAP via iSWAP is not unitarily equivalent to SWAP")
	}
	if d.CountKind(ISwap) != 6 {
		t.Fatalf("SWAP via pure iSWAP uses 3 CNOTs = 6 iSWAPs, got %d", d.CountKind(ISwap))
	}
}

func TestHybridCNOTUsesCZ(t *testing.T) {
	d := decomposeSingle(t, CNOT, []int{0, 1}, Hybrid)
	if d.CountKind(CZ) != 1 || d.CountKind(ISwap) != 0 {
		t.Fatal("hybrid must route CNOT through CZ")
	}
}

func TestDecomposeProducesNativeCircuit(t *testing.T) {
	c := New(2)
	c.H(0).CNOT(0, 1).SWAP(0, 1).CZ(0, 1).RZ(1, 0.3)
	for _, s := range []DecomposeStrategy{Hybrid, PureCZ, PureISwap} {
		d := Decompose(c, s)
		if !d.IsNative() {
			t.Fatalf("strategy %v left non-native gates", s)
		}
		// The unitaries must agree regardless of strategy.
		if !EqualUpToGlobalPhase4(unitary4(t, d), unitary4(t, Decompose(c, PureCZ)), 1e-9) {
			t.Fatalf("strategy %v changed the circuit unitary", s)
		}
	}
}

// TestDecomposeSizesOutputOnce pins decomposedLen to what the append
// helpers emit: the output slice is allocated once at exactly its final
// length, for every strategy.
func TestDecomposeSizesOutputOnce(t *testing.T) {
	c := New(3)
	c.H(0).CNOT(0, 1).SWAP(1, 2).CZ(0, 2).CNOT(2, 0).SWAP(0, 1).RZ(1, 0.3)
	for _, s := range []DecomposeStrategy{Hybrid, PureCZ, PureISwap} {
		d := Decompose(c, s)
		if len(d.Gates) != cap(d.Gates) {
			t.Fatalf("%v: %d gates in a slice of capacity %d", s, len(d.Gates), cap(d.Gates))
		}
	}
}

func TestDecomposePassesNativeGatesThrough(t *testing.T) {
	c := New(2)
	c.ISwap(0, 1).CZ(0, 1).SqrtISwap(0, 1).H(0)
	d := Decompose(c, Hybrid)
	if d.NumGates() != c.NumGates() {
		t.Fatalf("native circuit modified: %d -> %d gates", c.NumGates(), d.NumGates())
	}
}

func TestHybridCheaperTwoQubitTime(t *testing.T) {
	// The motivation for hybrid decomposition: total native two-qubit gate
	// count (weighted by relative duration CZ≈1.41·√iSWAP·... in units of
	// 1/g: iSWAP=0.25, √iSWAP=0.125, CZ≈0.354) is lower for hybrid than
	// for either pure strategy on a CNOT+SWAP workload.
	cost := func(d *Circuit) float64 {
		total := 0.0
		for _, g := range d.Gates {
			switch g.Kind {
			case ISwap:
				total += 0.25
			case SqrtISwap:
				total += 0.125
			case CZ:
				total += 0.3536
			}
		}
		return total
	}
	c := New(2)
	c.CNOT(0, 1).SWAP(0, 1)
	hybrid := cost(Decompose(c, Hybrid))
	pureCZ := cost(Decompose(c, PureCZ))
	pureIS := cost(Decompose(c, PureISwap))
	if hybrid >= pureCZ || hybrid >= pureIS {
		t.Fatalf("hybrid cost %v should beat pure-CZ %v and pure-iSWAP %v", hybrid, pureCZ, pureIS)
	}
}

func TestDecomposeStrategyString(t *testing.T) {
	if Hybrid.String() != "hybrid" || PureCZ.String() != "pure-cz" || PureISwap.String() != "pure-iswap" {
		t.Error("strategy names wrong")
	}
	if DecomposeStrategy(99).String() != "unknown" {
		t.Error("unknown strategy name wrong")
	}
}
