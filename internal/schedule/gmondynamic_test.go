package schedule

import (
	"testing"

	"fastsc/internal/bench"
	"fastsc/internal/compile"
)

func TestGmonDynamicCompiles(t *testing.T) {
	sys := testSystem(16)
	c := bench.XEB(sys.Device, 5, 3)
	s, err := (GmonDynamic{}).Compile(&compile.Context{}, c, sys, Options{Residual: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
	if !s.Gmon {
		t.Fatal("GmonDynamic must mark the schedule as gmon")
	}
	if s.Residual != 0.5 {
		t.Fatalf("residual = %v", s.Residual)
	}
	if s.Strategy != "ColorDynamic-G" {
		t.Fatalf("strategy label = %q", s.Strategy)
	}
}

func TestGmonDynamicSchedulesLikeColorDynamic(t *testing.T) {
	// Same coloring machinery: identical slice structure, only the coupler
	// model differs.
	sys := testSystem(16)
	c := bench.XEB(sys.Device, 5, 3)
	cd, err := (ColorDynamic{}).Compile(&compile.Context{}, c, sys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cdg, err := (GmonDynamic{}).Compile(&compile.Context{}, c, sys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if cd.Depth() != cdg.Depth() {
		t.Fatalf("depths differ: %d vs %d", cd.Depth(), cdg.Depth())
	}
	if cd.Gmon || !cdg.Gmon {
		t.Fatal("gmon flags wrong")
	}
}

func TestExtendedRegistry(t *testing.T) {
	if len(Extended()) != len(Registry())+1 {
		t.Fatalf("extended registry size %d", len(Extended()))
	}
	if ByName("ColorDynamic-G") == nil {
		t.Fatal("ColorDynamic-G not resolvable by name")
	}
	// The Table I registry must stay at exactly five strategies.
	if len(Registry()) != 5 {
		t.Fatalf("registry has %d strategies", len(Registry()))
	}
}
