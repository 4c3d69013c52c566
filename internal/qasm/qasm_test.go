package qasm

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"fastsc/internal/circuit"
)

// The programs of the parse tests below, which FuzzParse also starts from.
const (
	basicProgram = `
OPENQASM 2.0;
include "qelib1.inc";
qreg q[3];
h q[0];
cx q[0],q[1];
rz(pi/2) q[2];
swap q[1], q[2];
`
	commentedProgram = `qreg q[2]; // register
// full line comment
h q[0]; cx q[0],q[1]; // two statements on one line`
	classicalProgram = `qreg q[2];
creg c[2];
h q[0];
barrier q[0],q[1];
measure q[0] -> c[0];`
)

// badPrograms each fail to parse.
var badPrograms = []string{
	"h q[0];",                         // gate before qreg
	"qreg q[0];",                      // empty register
	"qreg q[2];\nfoo q[0];",           // unknown gate
	"qreg q[2];\nh q[5];",             // out of range
	"qreg q[2];\nh r[0];",             // unknown register
	"qreg q[2];\ncx q[0];",            // wrong arity
	"qreg q[2];\ncx q[0],q[0];",       // one qubit twice
	"qreg q[2];\nrz(pi/0) q[0];",      // division by zero
	"qreg q[2];\nqreg r[2];\nh q[0];", // double qreg
	"qreg q[2];\nrz(banana) q[0];",    // bad token
}

func TestParseBasicProgram(t *testing.T) {
	res, err := Parse(basicProgram)
	if err != nil {
		t.Fatal(err)
	}
	c := res.Circuit
	if c.NumQubits != 3 || c.NumGates() != 4 {
		t.Fatalf("parsed %d qubits %d gates", c.NumQubits, c.NumGates())
	}
	if c.Gates[1].Kind != circuit.CNOT || c.Gates[1].Qubits[0] != 0 || c.Gates[1].Qubits[1] != 1 {
		t.Fatalf("gate 1 = %v", c.Gates[1])
	}
	if math.Abs(c.Gates[2].Theta-math.Pi/2) > 1e-12 {
		t.Fatalf("rz angle = %v", c.Gates[2].Theta)
	}
}

func TestParseComments(t *testing.T) {
	res, err := Parse(commentedProgram)
	if err != nil {
		t.Fatal(err)
	}
	if res.Circuit.NumGates() != 2 {
		t.Fatalf("gates = %d", res.Circuit.NumGates())
	}
}

func TestParseSkipsClassical(t *testing.T) {
	res, err := Parse(classicalProgram)
	if err != nil {
		t.Fatal(err)
	}
	if res.Circuit.NumGates() != 1 {
		t.Fatalf("gates = %d", res.Circuit.NumGates())
	}
	if len(res.Skipped) != 3 {
		t.Fatalf("skipped = %v", res.Skipped)
	}
}

func TestParseAngles(t *testing.T) {
	cases := map[string]float64{
		"pi":     math.Pi,
		"-pi/4":  -math.Pi / 4,
		"3*pi/2": 3 * math.Pi / 2,
		"0.25":   0.25,
		"2*0.5":  1,
	}
	for expr, want := range cases {
		src := "qreg q[1];\nrz(" + expr + ") q[0];"
		res, err := Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", expr, err)
		}
		if got := res.Circuit.Gates[0].Theta; math.Abs(got-want) > 1e-12 {
			t.Fatalf("angle %q = %v, want %v", expr, got, want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, src := range badPrograms {
		if _, err := Parse(src); err == nil {
			t.Fatalf("expected error for %q", src)
		}
	}
}

func TestWriteRoundTrip(t *testing.T) {
	c := circuit.New(4)
	c.H(0).CNOT(0, 1).RZ(2, 1.25).SqrtISwap(2, 3).SWAP(0, 3).Tdg(1)
	src, err := Write(c)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Parse(src)
	if err != nil {
		t.Fatalf("round-trip parse: %v\n%s", err, src)
	}
	if res.Circuit.NumGates() != c.NumGates() {
		t.Fatalf("round trip lost gates: %d -> %d", c.NumGates(), res.Circuit.NumGates())
	}
	for i := range c.Gates {
		a, b := c.Gates[i], res.Circuit.Gates[i]
		if a.Kind != b.Kind || math.Abs(a.Theta-b.Theta) > 1e-9 {
			t.Fatalf("gate %d: %v != %v", i, a, b)
		}
		for j := range a.Qubits {
			if a.Qubits[j] != b.Qubits[j] {
				t.Fatalf("gate %d operands: %v != %v", i, a, b)
			}
		}
	}
}

func TestWriteRejectsUnsupportedKinds(t *testing.T) {
	c := circuit.New(1)
	c.SqrtW(0)
	if _, err := Write(c); err == nil {
		t.Fatal("SW has no QASM form and should be rejected")
	}
}

// Property: random circuits over the QASM-expressible gate set round-trip
// exactly.
func TestRoundTripProperty(t *testing.T) {
	kinds1q := []circuit.Kind{circuit.H, circuit.X, circuit.S, circuit.Tdg, circuit.RX, circuit.RZ}
	kinds2q := []circuit.Kind{circuit.CNOT, circuit.CZ, circuit.SWAP, circuit.ISwap}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		c := circuit.New(n)
		for i := 0; i < 1+rng.Intn(25); i++ {
			if rng.Float64() < 0.5 {
				k := kinds1q[rng.Intn(len(kinds1q))]
				theta := 0.0
				if k.IsParametric() {
					theta = rng.Float64()
				}
				c.Add(circuit.Gate{Kind: k, Qubits: []int{rng.Intn(n)}, Theta: theta})
			} else {
				a, b := rng.Intn(n), rng.Intn(n)
				for b == a {
					b = rng.Intn(n)
				}
				c.Add(circuit.Gate{Kind: kinds2q[rng.Intn(len(kinds2q))], Qubits: []int{a, b}})
			}
		}
		src, err := Write(c)
		if err != nil {
			return false
		}
		res, err := Parse(src)
		if err != nil {
			return false
		}
		if res.Circuit.NumGates() != c.NumGates() || res.Circuit.NumQubits != c.NumQubits {
			return false
		}
		for i := range c.Gates {
			a, b := c.Gates[i], res.Circuit.Gates[i]
			if a.Kind != b.Kind || math.Abs(a.Theta-b.Theta) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestWriteHeader(t *testing.T) {
	c := circuit.New(2)
	c.H(0)
	src, err := Write(c)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(src, "OPENQASM 2.0;") || !strings.Contains(src, "qreg q[2];") {
		t.Fatalf("malformed header:\n%s", src)
	}
}
