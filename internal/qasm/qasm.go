// Package qasm reads and writes a practical subset of OpenQASM 2.0, so
// external circuits can be fed to the compiler and compiled circuits can be
// exported to other toolchains.
//
// Supported statements: the OPENQASM header, include (ignored), a single
// qreg declaration, gate applications over the supported gate set (h, x, y,
// z, s, sdg, t, tdg, sx, id, rx, ry, rz, u1, cx/CX, cz, swap, iswap,
// sqiswap), barrier (ignored), creg and measure (ignored with a warning
// list). Angle expressions understand pi, unary minus, decimal literals and
// the operators * and /.
package qasm

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"fastsc/internal/circuit"
)

// Result carries a parsed circuit plus any statements that were skipped.
type Result struct {
	Circuit *circuit.Circuit
	// Skipped lists ignored statements (creg/measure/barrier/include).
	Skipped []string
}

// Parse reads OpenQASM source.
func Parse(src string) (*Result, error) {
	p := &parser{}
	for lineNo, raw := range strings.Split(src, "\n") {
		line := strings.TrimSpace(stripComment(raw))
		if line == "" {
			continue
		}
		for _, stmt := range splitStatements(line) {
			if err := p.statement(stmt); err != nil {
				return nil, fmt.Errorf("qasm: line %d: %w", lineNo+1, err)
			}
		}
	}
	if p.circ == nil {
		return nil, fmt.Errorf("qasm: no qreg declaration found")
	}
	return &Result{Circuit: p.circ, Skipped: p.skipped}, nil
}

func stripComment(s string) string {
	if i := strings.Index(s, "//"); i >= 0 {
		return s[:i]
	}
	return s
}

func splitStatements(line string) []string {
	var out []string
	for _, s := range strings.Split(line, ";") {
		s = strings.TrimSpace(s)
		if s != "" {
			out = append(out, s)
		}
	}
	return out
}

type parser struct {
	circ    *circuit.Circuit
	regName string
	skipped []string
}

func (p *parser) statement(s string) error {
	switch {
	case strings.HasPrefix(s, "OPENQASM"):
		return nil
	case strings.HasPrefix(s, "include"):
		p.skipped = append(p.skipped, s)
		return nil
	case strings.HasPrefix(s, "qreg"):
		return p.qreg(s)
	case strings.HasPrefix(s, "creg"), strings.HasPrefix(s, "measure"),
		strings.HasPrefix(s, "barrier"), strings.HasPrefix(s, "reset"):
		p.skipped = append(p.skipped, s)
		return nil
	}
	return p.gate(s)
}

func (p *parser) qreg(s string) error {
	if p.circ != nil {
		return fmt.Errorf("multiple qreg declarations (only one register supported)")
	}
	// qreg q[16]
	rest := strings.TrimSpace(strings.TrimPrefix(s, "qreg"))
	open := strings.Index(rest, "[")
	close := strings.Index(rest, "]")
	if open < 1 || close <= open {
		return fmt.Errorf("malformed qreg %q", s)
	}
	n, err := strconv.Atoi(rest[open+1 : close])
	if err != nil || n < 1 {
		return fmt.Errorf("bad register size in %q", s)
	}
	p.regName = strings.TrimSpace(rest[:open])
	p.circ = circuit.New(n)
	return nil
}

var gateKinds = map[string]circuit.Kind{
	"id": circuit.I, "x": circuit.X, "y": circuit.Y, "z": circuit.Z,
	"h": circuit.H, "s": circuit.S, "sdg": circuit.Sdg,
	"t": circuit.T, "tdg": circuit.Tdg, "sx": circuit.SX,
	"rx": circuit.RX, "ry": circuit.RY, "rz": circuit.RZ, "u1": circuit.RZ,
	"cx": circuit.CNOT, "CX": circuit.CNOT, "cnot": circuit.CNOT,
	"cz": circuit.CZ, "swap": circuit.SWAP,
	"iswap": circuit.ISwap, "sqiswap": circuit.SqrtISwap,
}

func (p *parser) gate(s string) error {
	if p.circ == nil {
		return fmt.Errorf("gate before qreg declaration")
	}
	name, theta, operands, err := splitGate(s)
	if err != nil {
		return err
	}
	kind, ok := gateKinds[name]
	if !ok {
		return fmt.Errorf("unsupported gate %q", name)
	}
	qubits := make([]int, 0, len(operands))
	for _, op := range operands {
		q, err := p.qubitIndex(op)
		if err != nil {
			return err
		}
		qubits = append(qubits, q)
	}
	want := 1
	if kind.IsTwoQubit() {
		want = 2
	}
	if len(qubits) != want {
		return fmt.Errorf("gate %s wants %d operands, got %d", name, want, len(qubits))
	}
	if want == 2 && qubits[0] == qubits[1] {
		return fmt.Errorf("two-qubit gate %s on a single qubit %d", name, qubits[0])
	}
	p.circ.Add(circuit.Gate{Kind: kind, Qubits: qubits, Theta: theta})
	return nil
}

// splitGate parses "rz(pi/2) q[3]" into name, angle and operand list.
func splitGate(s string) (name string, theta float64, operands []string, err error) {
	head := s
	if i := strings.IndexAny(s, " \t"); i >= 0 {
		head, s = s[:i], strings.TrimSpace(s[i:])
	} else {
		return "", 0, nil, fmt.Errorf("malformed gate statement %q", s)
	}
	if open := strings.Index(head, "("); open >= 0 {
		close := strings.LastIndex(head, ")")
		if close <= open {
			return "", 0, nil, fmt.Errorf("unbalanced parentheses in %q", head)
		}
		theta, err = evalAngle(head[open+1 : close])
		if err != nil {
			return "", 0, nil, err
		}
		name = head[:open]
	} else {
		name = head
	}
	for _, op := range strings.Split(s, ",") {
		operands = append(operands, strings.TrimSpace(op))
	}
	return name, theta, operands, nil
}

func (p *parser) qubitIndex(op string) (int, error) {
	open := strings.Index(op, "[")
	close := strings.Index(op, "]")
	if open < 1 || close <= open {
		return 0, fmt.Errorf("malformed operand %q", op)
	}
	if reg := strings.TrimSpace(op[:open]); reg != p.regName {
		return 0, fmt.Errorf("unknown register %q (declared %q)", reg, p.regName)
	}
	q, err := strconv.Atoi(op[open+1 : close])
	if err != nil || q < 0 || q >= p.circ.NumQubits {
		return 0, fmt.Errorf("qubit index out of range in %q", op)
	}
	return q, nil
}

// evalAngle evaluates expressions like "pi/2", "-pi/4", "0.3", "3*pi/2".
func evalAngle(expr string) (float64, error) {
	expr = strings.ReplaceAll(expr, " ", "")
	if expr == "" {
		return 0, fmt.Errorf("empty angle")
	}
	neg := false
	if expr[0] == '-' {
		neg = true
		expr = expr[1:]
	}
	// Split on * and / left to right.
	val := 1.0
	cur := ""
	op := byte('*')
	apply := func(tok string) error {
		if tok == "" {
			return fmt.Errorf("malformed angle expression")
		}
		var v float64
		if tok == "pi" {
			v = math.Pi
		} else {
			f, err := strconv.ParseFloat(tok, 64)
			if err != nil {
				return fmt.Errorf("bad angle token %q", tok)
			}
			v = f
		}
		switch op {
		case '*':
			val *= v
		case '/':
			if v == 0 {
				return fmt.Errorf("division by zero in angle")
			}
			val /= v
		}
		return nil
	}
	for i := 0; i < len(expr); i++ {
		c := expr[i]
		if c == '*' || c == '/' {
			if err := apply(cur); err != nil {
				return 0, err
			}
			op, cur = c, ""
			continue
		}
		cur += string(c)
	}
	if err := apply(cur); err != nil {
		return 0, err
	}
	if neg {
		val = -val
	}
	return val, nil
}

var kindNames = map[circuit.Kind]string{
	circuit.I: "id", circuit.X: "x", circuit.Y: "y", circuit.Z: "z",
	circuit.H: "h", circuit.S: "s", circuit.Sdg: "sdg",
	circuit.T: "t", circuit.Tdg: "tdg", circuit.SX: "sx",
	circuit.RX: "rx", circuit.RY: "ry", circuit.RZ: "rz",
	circuit.CNOT: "cx", circuit.CZ: "cz", circuit.SWAP: "swap",
	circuit.ISwap: "iswap", circuit.SqrtISwap: "sqiswap",
}

// Write renders a circuit as OpenQASM 2.0 (with the iswap/sqiswap dialect
// extensions used by this toolbox; SY and SW are emitted as ry/rx-rz
// equivalents are NOT applied — they are unsupported and reported).
func Write(c *circuit.Circuit) (string, error) {
	var b strings.Builder
	b.WriteString("OPENQASM 2.0;\ninclude \"qelib1.inc\";\n")
	fmt.Fprintf(&b, "qreg q[%d];\n", c.NumQubits)
	for _, g := range c.Gates {
		name, ok := kindNames[g.Kind]
		if !ok {
			return "", fmt.Errorf("qasm: gate kind %v has no QASM form", g.Kind)
		}
		if g.Kind.IsParametric() {
			fmt.Fprintf(&b, "%s(%.12g)", name, g.Theta)
		} else {
			b.WriteString(name)
		}
		for i, q := range g.Qubits {
			if i == 0 {
				b.WriteString(" ")
			} else {
				b.WriteString(",")
			}
			fmt.Fprintf(&b, "q[%d]", q)
		}
		b.WriteString(";\n")
	}
	return b.String(), nil
}
