package qasm

import (
	"slices"
	"testing"
)

// smokeProgram is the 9-qubit program scripts/daemon-smoke.sh submits.
const smokeProgram = `OPENQASM 2.0;
include "qelib1.inc";
qreg q[9];
h q[0];
h q[4];
cz q[0],q[1];
cz q[3],q[4];
cz q[7],q[8];
cz q[1],q[2];
cz q[4],q[5];
rz(pi/2) q[2];
cz q[2],q[5];
`

// FuzzParse feeds arbitrary source to Parse. No input may panic. A parsed
// circuit has at least one qubit and every operand in range, and Write
// followed by Parse gives back its qubit count, gate kinds and operands.
// Run it with `make fuzz`; a crasher lands in testdata/fuzz/FuzzParse and
// belongs in the repo as a seed.
func FuzzParse(f *testing.F) {
	for _, src := range []string{basicProgram, commentedProgram, classicalProgram, smokeProgram} {
		f.Add(src)
	}
	for _, src := range badPrograms {
		f.Add(src)
	}
	f.Add("qreg q[2147483647];\nh q[2147483646];\ncx q[0],q[2147483646];")
	f.Fuzz(func(t *testing.T, src string) {
		res, err := Parse(src)
		if err != nil {
			return
		}
		c := res.Circuit
		if c.NumQubits < 1 {
			t.Fatalf("parsed a circuit with %d qubits", c.NumQubits)
		}
		for i, g := range c.Gates {
			for _, q := range g.Qubits {
				if q < 0 || q >= c.NumQubits {
					t.Fatalf("gate %d (%v): qubit %d out of range [0,%d)", i, g.Kind, q, c.NumQubits)
				}
			}
		}
		out, err := Write(c)
		if err != nil {
			t.Fatalf("Write of a parsed circuit: %v", err)
		}
		back, err := Parse(out)
		if err != nil {
			t.Fatalf("Parse of Write's output: %v\n%s", err, out)
		}
		if back.Circuit.NumQubits != c.NumQubits || len(back.Circuit.Gates) != len(c.Gates) {
			t.Fatalf("round trip: %d qubits and %d gates, want %d and %d",
				back.Circuit.NumQubits, len(back.Circuit.Gates), c.NumQubits, len(c.Gates))
		}
		for i, g := range c.Gates {
			h := back.Circuit.Gates[i]
			if h.Kind != g.Kind || !slices.Equal(h.Qubits, g.Qubits) {
				t.Fatalf("round trip: gate %d is %v %v, want %v %v", i, h.Kind, h.Qubits, g.Kind, g.Qubits)
			}
		}
	})
}
