package circuit

// Hybrid gate decomposition (§V-B5, Fig 8). CNOT and SWAP are not native to
// the tunable-transmon architecture; they are rewritten into sequences over
// {CZ, iSWAP, √iSWAP} plus single-qubit gates. The paper's hybrid strategy
// decomposes CNOT with CZ (1 native two-qubit gate) and SWAP with √iSWAP
// (3 short native gates), which is cheaper than forcing a single native
// family. All sequences below are exact up to global phase; the test suite
// re-verifies each against the logical unitary.

// DecomposeStrategy selects the native-gate family used for CNOT and SWAP.
type DecomposeStrategy int

const (
	// Hybrid implements the paper's strategy: CNOT via CZ, SWAP via √iSWAP.
	Hybrid DecomposeStrategy = iota
	// PureCZ decomposes both CNOT and SWAP into CZ-based sequences.
	PureCZ
	// PureISwap decomposes both into iSWAP-based sequences.
	PureISwap
)

func (s DecomposeStrategy) String() string {
	switch s {
	case Hybrid:
		return "hybrid"
	case PureCZ:
		return "pure-cz"
	case PureISwap:
		return "pure-iswap"
	}
	return "unknown"
}

// Decompose returns a new circuit in which every CNOT and SWAP has been
// replaced by its native sequence under the chosen strategy. Native gates
// pass through unchanged. The output's gate slice is sized once, from
// decomposedLen, instead of growing gate by gate.
func Decompose(c *Circuit, s DecomposeStrategy) *Circuit {
	out := New(c.NumQubits)
	out.Gates = make([]Gate, 0, decomposedLen(c, s))
	for _, g := range c.Gates {
		switch g.Kind {
		case CNOT:
			ctrl, tgt := g.Qubits[0], g.Qubits[1]
			if s == PureISwap {
				appendCNOTViaISwap(out, ctrl, tgt)
			} else {
				appendCNOTViaCZ(out, ctrl, tgt)
			}
		case SWAP:
			a, b := g.Qubits[0], g.Qubits[1]
			switch s {
			case Hybrid:
				appendSWAPViaSqrtISwap(out, a, b)
			case PureCZ:
				appendSWAPViaCZ(out, a, b)
			case PureISwap:
				// Three iSWAP-decomposed CNOTs.
				appendCNOTViaISwap(out, a, b)
				appendCNOTViaISwap(out, b, a)
				appendCNOTViaISwap(out, a, b)
			}
		default:
			out.Add(g)
		}
	}
	return out
}

// Native gate counts of the sequences below (appendCNOTViaCZ,
// appendCNOTViaISwap, appendSWAPViaSqrtISwap).
const (
	cnotViaCZLen        = 3
	cnotViaISwapLen     = 10
	swapViaSqrtISwapLen = 21
)

// decomposedLen returns the number of gates Decompose(c, s) emits.
func decomposedLen(c *Circuit, s DecomposeStrategy) int {
	cnot, swap := cnotViaCZLen, swapViaSqrtISwapLen
	switch s {
	case PureCZ:
		swap = 3 * cnotViaCZLen
	case PureISwap:
		cnot, swap = cnotViaISwapLen, 3*cnotViaISwapLen
	}
	n := 0
	for _, g := range c.Gates {
		switch g.Kind {
		case CNOT:
			n += cnot
		case SWAP:
			n += swap
		default:
			n++
		}
	}
	return n
}

// appendCNOTViaCZ emits CNOT(ctrl,tgt) = (I⊗H)·CZ·(I⊗H) (Fig 8c).
func appendCNOTViaCZ(c *Circuit, ctrl, tgt int) {
	c.H(tgt)
	c.CZ(ctrl, tgt)
	c.H(tgt)
}

// appendSWAPViaCZ emits SWAP as three CZ-decomposed CNOTs (Fig 8d).
func appendSWAPViaCZ(c *Circuit, a, b int) {
	appendCNOTViaCZ(c, a, b)
	appendCNOTViaCZ(c, b, a)
	appendCNOTViaCZ(c, a, b)
}

// appendCNOTViaISwap emits the two-iSWAP realization of CNOT (Fig 8a).
// With the paper's iSWAP convention (off-diagonal −i), the exact identity
// (up to global phase) is
//
//	CNOT = (S ⊗ Z·Rx(π/2)) · iSWAP · (Z·Ry(π/2) ⊗ Z) · iSWAP · (Z ⊗ Z)
//
// where the left factor of each tensor product acts on the control. The
// sequence was synthesized by exhaustive search over Clifford local layers
// and is re-verified numerically in the tests.
func appendCNOTViaISwap(c *Circuit, ctrl, tgt int) {
	c.Z(ctrl)
	c.Z(tgt)
	c.ISwap(ctrl, tgt)
	c.RY(ctrl, pi/2)
	c.Z(ctrl)
	c.Z(tgt)
	c.ISwap(ctrl, tgt)
	c.S(ctrl)
	c.RX(tgt, pi/2)
	c.Z(tgt)
}

// appendSWAPViaSqrtISwap emits the three-√iSWAP realization of SWAP
// (Fig 8b). With the paper's √iSWAP convention the exact identity (up to
// global phase) is
//
//	SWAP = (H·S ⊗ H·S) · √iSWAP · (Z·H·S ⊗ Z·H·S) · √iSWAP
//	        · (Z·H·S ⊗ Z·H·S) · √iSWAP · (Z ⊗ Z)
//
// (each local factor listed left-to-right in matrix order, i.e. S applies
// first). Synthesized by Clifford-layer search; verified in tests.
func appendSWAPViaSqrtISwap(c *Circuit, a, b int) {
	c.Z(a)
	c.Z(b)
	c.SqrtISwap(a, b)
	for _, q := range []int{a, b} {
		c.S(q)
		c.H(q)
		c.Z(q)
	}
	c.SqrtISwap(a, b)
	for _, q := range []int{a, b} {
		c.S(q)
		c.H(q)
		c.Z(q)
	}
	c.SqrtISwap(a, b)
	for _, q := range []int{a, b} {
		c.S(q)
		c.H(q)
	}
}

const pi = 3.14159265358979323846
