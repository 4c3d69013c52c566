// Package circuit defines the quantum-circuit intermediate representation of
// the compiler: the gate set (single-qubit rotations and the native
// two-qubit family CZ/iSWAP/√iSWAP plus the logical CNOT/SWAP), circuit
// containers, dependency analysis (layering, depth, criticality), and the
// hybrid gate decompositions of Fig 8.
package circuit

import (
	"fmt"
	"math"
	"math/cmplx"
)

// Kind enumerates the supported gate types.
type Kind int

const (
	// Single-qubit gates.
	I Kind = iota
	X
	Y
	Z
	H
	S
	Sdg
	T
	Tdg
	SX // √X, the XEB single-qubit gate family (Arute et al.)
	SY // √Y
	SW // √W, W = (X+Y)/√2
	RX // rotation about x by Theta
	RY // rotation about y by Theta
	RZ // rotation about z by Theta
	// Two-qubit gates. CZ, ISwap and SqrtISwap are native to the tunable
	// transmon architecture (implemented by frequency resonance); CNOT and
	// SWAP are logical gates that must be decomposed before scheduling.
	CZ
	ISwap
	SqrtISwap
	CNOT
	SWAP
)

var kindNames = map[Kind]string{
	I: "i", X: "x", Y: "y", Z: "z", H: "h", S: "s", Sdg: "sdg",
	T: "t", Tdg: "tdg", SX: "sx", SY: "sy", SW: "sw",
	RX: "rx", RY: "ry", RZ: "rz",
	CZ: "cz", ISwap: "iswap", SqrtISwap: "sqiswap", CNOT: "cnot", SWAP: "swap",
}

// String returns the lowercase mnemonic, e.g. "cz".
func (k Kind) String() string {
	if n, ok := kindNames[k]; ok {
		return n
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// namedKinds is the reverse of kindNames, built once for KindByName.
var namedKinds = func() map[string]Kind {
	m := make(map[string]Kind, len(kindNames))
	for k, n := range kindNames {
		m[n] = k
	}
	return m
}()

// KindByName resolves a lowercase gate mnemonic (the String form, e.g.
// "cz", "rx") back to its Kind. It is the lookup wire formats use to decode
// gates by name.
func KindByName(name string) (Kind, bool) {
	k, ok := namedKinds[name]
	return k, ok
}

// IsTwoQubit reports whether the kind acts on two qubits.
func (k Kind) IsTwoQubit() bool {
	switch k {
	case CZ, ISwap, SqrtISwap, CNOT, SWAP:
		return true
	}
	return false
}

// IsNative reports whether the kind is directly implementable on the
// tunable-transmon architecture (all single-qubit gates plus CZ, iSWAP and
// √iSWAP; CNOT and SWAP require decomposition).
func (k Kind) IsNative() bool {
	switch k {
	case CNOT, SWAP:
		return false
	}
	return true
}

// IsParametric reports whether the kind carries a rotation angle.
func (k Kind) IsParametric() bool { return k == RX || k == RY || k == RZ }

// IsVirtual reports whether the gate is a pure phase (Z-axis) rotation,
// implemented in software as a frame update with zero duration and no
// control error (the "virtual Z" of transmon control stacks; the paper's
// fast flux Rz gates, Appendix C).
func (k Kind) IsVirtual() bool {
	switch k {
	case I, Z, S, Sdg, T, Tdg, RZ:
		return true
	}
	return false
}

// Gate is one circuit operation. Qubits holds one id for single-qubit gates
// and two for two-qubit gates (for CNOT, Qubits[0] is the control).
type Gate struct {
	Kind   Kind
	Qubits []int
	// Theta is the rotation angle for RX/RY/RZ; ignored otherwise.
	Theta float64
}

// Arity returns the number of qubits the gate touches.
func (g Gate) Arity() int { return len(g.Qubits) }

// On reports whether the gate acts on qubit q.
func (g Gate) On(q int) bool {
	for _, x := range g.Qubits {
		if x == q {
			return true
		}
	}
	return false
}

// String renders e.g. "cz(2,3)" or "rx(0.7854)(5)".
func (g Gate) String() string {
	if g.Kind.IsParametric() {
		return fmt.Sprintf("%s(%.4f)(%s)", g.Kind, g.Theta, joinInts(g.Qubits))
	}
	return fmt.Sprintf("%s(%s)", g.Kind, joinInts(g.Qubits))
}

func joinInts(xs []int) string {
	s := ""
	for i, x := range xs {
		if i > 0 {
			s += ","
		}
		s += fmt.Sprintf("%d", x)
	}
	return s
}

// Matrix1 returns the 2×2 unitary of a single-qubit gate kind (with angle
// theta for the rotation kinds). It panics for two-qubit kinds.
func Matrix1(k Kind, theta float64) Mat2 {
	sq := complex(1/math.Sqrt2, 0)
	i_ := complex(0, 1)
	switch k {
	case I:
		return Mat2{{1, 0}, {0, 1}}
	case X:
		return Mat2{{0, 1}, {1, 0}}
	case Y:
		return Mat2{{0, -i_}, {i_, 0}}
	case Z:
		return Mat2{{1, 0}, {0, -1}}
	case H:
		return Mat2{{sq, sq}, {sq, -sq}}
	case S:
		return Mat2{{1, 0}, {0, i_}}
	case Sdg:
		return Mat2{{1, 0}, {0, -i_}}
	case T:
		return Mat2{{1, 0}, {0, cmplx.Exp(complex(0, math.Pi/4))}}
	case Tdg:
		return Mat2{{1, 0}, {0, cmplx.Exp(complex(0, -math.Pi/4))}}
	case SX:
		// √X = e^{iπ/4}·Rx(π/2)
		return Mat2{
			{complex(0.5, 0.5), complex(0.5, -0.5)},
			{complex(0.5, -0.5), complex(0.5, 0.5)},
		}
	case SY:
		// √Y = e^{iπ/4}·Ry(π/2)
		return Mat2{
			{complex(0.5, 0.5), complex(-0.5, -0.5)},
			{complex(0.5, 0.5), complex(0.5, 0.5)},
		}
	case SW:
		// √W with W = (X+Y)/√2: cos(π/4)·I − i·sin(π/4)·(X+Y)/√2.
		return Mat2{
			{sq, complex(-0.5, -0.5)},
			{complex(0.5, -0.5), sq},
		}
	case RX:
		c, s := complex(math.Cos(theta/2), 0), complex(0, -math.Sin(theta/2))
		return Mat2{{c, s}, {s, c}}
	case RY:
		c, s := math.Cos(theta/2), math.Sin(theta/2)
		return Mat2{
			{complex(c, 0), complex(-s, 0)},
			{complex(s, 0), complex(c, 0)},
		}
	case RZ:
		return Mat2{
			{cmplx.Exp(complex(0, -theta/2)), 0},
			{0, cmplx.Exp(complex(0, theta/2))},
		}
	}
	panic(fmt.Sprintf("circuit: Matrix1 on two-qubit kind %v", k))
}

// Matrix2Q returns the 4×4 unitary of a two-qubit gate kind in the basis
// {|00⟩, |01⟩, |10⟩, |11⟩} with Qubits[0] as the high-order bit. The iSWAP
// convention follows the paper (§II-B2): off-diagonal elements −i.
func Matrix2Q(k Kind) Mat4 {
	i_ := complex(0, 1)
	r := complex(1/math.Sqrt2, 0)
	switch k {
	case CZ:
		return Mat4{{1, 0, 0, 0}, {0, 1, 0, 0}, {0, 0, 1, 0}, {0, 0, 0, -1}}
	case ISwap:
		return Mat4{{1, 0, 0, 0}, {0, 0, -i_, 0}, {0, -i_, 0, 0}, {0, 0, 0, 1}}
	case SqrtISwap:
		return Mat4{{1, 0, 0, 0}, {0, r, -i_ * r, 0}, {0, -i_ * r, r, 0}, {0, 0, 0, 1}}
	case CNOT:
		return Mat4{{1, 0, 0, 0}, {0, 1, 0, 0}, {0, 0, 0, 1}, {0, 0, 1, 0}}
	case SWAP:
		return Mat4{{1, 0, 0, 0}, {0, 0, 1, 0}, {0, 1, 0, 0}, {0, 0, 0, 1}}
	}
	panic(fmt.Sprintf("circuit: Matrix2Q on single-qubit kind %v", k))
}
