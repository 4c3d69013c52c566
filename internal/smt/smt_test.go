package smt

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func cfg() Config {
	return Config{Lo: 6.2, Hi: 6.95, Alpha: -0.2}
}

func TestFeasibleSingleColor(t *testing.T) {
	xs, ok := Feasible(1, cfg(), 0.5)
	if !ok || len(xs) != 1 {
		t.Fatalf("single color placement failed: %v %v", xs, ok)
	}
	if xs[0] != cfg().Lo {
		t.Fatalf("single color should park at band floor, got %v", xs[0])
	}
}

func TestFeasibleZeroColors(t *testing.T) {
	xs, ok := Feasible(0, cfg(), 0.5)
	if !ok || xs != nil {
		t.Fatal("zero colors should be trivially feasible")
	}
}

func TestFeasibleRespectsConstraints(t *testing.T) {
	c := cfg()
	for k := 2; k <= 5; k++ {
		for _, delta := range []float64{0.01, 0.05, 0.1} {
			xs, ok := Feasible(k, c, delta)
			if !ok {
				continue
			}
			if err := Verify(xs, c, delta); err != nil {
				t.Fatalf("k=%d δ=%v: %v", k, delta, err)
			}
		}
	}
}

func TestFeasibleInfeasibleWhenCrowded(t *testing.T) {
	c := cfg() // band width 0.75
	if _, ok := Feasible(10, c, 0.2); ok {
		t.Fatal("10 colors at δ=0.2 cannot fit in a 0.75 GHz band")
	}
}

// referenceFeasible is the original bump loop (repeated full rescans until
// fixpoint); Feasible's single ascending pass must be bit-identical to it.
func referenceFeasible(k int, cfg Config, delta float64) ([]float64, bool) {
	if k <= 0 {
		return nil, true
	}
	if delta <= 0 || cfg.Hi < cfg.Lo {
		return nil, false
	}
	absAlpha := math.Abs(cfg.Alpha)
	xs := make([]float64, 0, k)
	v := cfg.Lo
	for i := 0; i < k; i++ {
		if i > 0 {
			v = xs[i-1] + delta
		}
		for bumped := true; bumped; {
			bumped = false
			for _, xj := range xs {
				lo := xj + absAlpha - delta
				hi := xj + absAlpha + delta
				if v > lo && v < hi {
					v = hi
					bumped = true
				}
			}
		}
		if v > cfg.Hi+1e-12 {
			return nil, false
		}
		xs = append(xs, v)
	}
	return xs, true
}

// TestFeasibleMatchesReferenceBumpLoop pins the single-pass sideband bump
// to the original repeated-rescan implementation, bit for bit, across a
// randomized parameter sweep.
func TestFeasibleMatchesReferenceBumpLoop(t *testing.T) {
	prop := func(kRaw, alphaRaw, deltaRaw, spanRaw uint8) bool {
		k := int(kRaw%12) + 1
		alpha := -0.05 - float64(alphaRaw%40)/100 // [-0.45, -0.05]
		delta := 0.005 + float64(deltaRaw%30)/200 // [0.005, 0.15]
		span := 0.2 + float64(spanRaw%20)/10      // [0.2, 2.1]
		c := Config{Lo: 5.9, Hi: 5.9 + span, Alpha: alpha}
		got, okGot := Feasible(k, c, delta)
		want, okWant := referenceFeasible(k, c, delta)
		if okGot != okWant || len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSolveMaximizesDelta(t *testing.T) {
	c := cfg()
	for k := 2; k <= 6; k++ {
		xs, delta, err := Solve(k, c)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if err := Verify(xs, c, delta-1e-6); err != nil {
			t.Fatalf("k=%d solution violates constraints: %v", k, err)
		}
		// Maximality: a slightly larger δ must be infeasible.
		if _, ok := Feasible(k, c, delta*1.01+1e-6); ok {
			t.Fatalf("k=%d: δ=%v not maximal", k, delta)
		}
	}
}

func TestSolveDeltaDecreasesWithColors(t *testing.T) {
	c := cfg()
	prev := math.Inf(1)
	for k := 2; k <= 6; k++ {
		_, delta, err := Solve(k, c)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if delta > prev+1e-9 {
			t.Fatalf("δ should shrink as colors grow: k=%d δ=%v prev=%v", k, delta, prev)
		}
		prev = delta
	}
}

func TestSolveSingleColorUsesFloor(t *testing.T) {
	xs, delta, err := Solve(1, cfg())
	if err != nil || len(xs) != 1 {
		t.Fatalf("Solve(1) failed: %v %v", xs, err)
	}
	if delta <= 0 {
		t.Fatalf("single color should report large separation, got %v", delta)
	}
}

func TestSolveInfeasible(t *testing.T) {
	c := Config{Lo: 6.0, Hi: 6.01, Alpha: -0.2, MinDelta: 0.005}
	_, _, err := Solve(5, c)
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("want ErrInfeasible, got %v", err)
	}
}

func TestSolveEmptyBand(t *testing.T) {
	if _, _, err := Solve(2, Config{Lo: 7, Hi: 6, Alpha: -0.2}); err == nil {
		t.Fatal("inverted band should error")
	}
}

func TestSolveZeroColors(t *testing.T) {
	xs, delta, err := Solve(0, cfg())
	if err != nil || xs != nil || delta != 0 {
		t.Fatalf("Solve(0) = %v %v %v", xs, delta, err)
	}
}

func TestSidebandAvoidance(t *testing.T) {
	// Force a case where the naive equal spacing would collide through the
	// sideband: 2 colors, band exactly wide enough that x0 + |α| sits where
	// x1 would naively go.
	c := Config{Lo: 6.0, Hi: 6.5, Alpha: -0.2}
	xs, delta, err := Solve(2, c)
	if err != nil {
		t.Fatal(err)
	}
	gap := xs[1] - xs[0]
	if math.Abs(gap-0.2) < delta-1e-9 {
		t.Fatalf("x1 sits on x0's sideband: gap %v, δ %v", gap, delta)
	}
}

func TestVerifyCatchesViolations(t *testing.T) {
	c := cfg()
	if err := Verify([]float64{6.3, 6.31}, c, 0.05); err == nil {
		t.Fatal("Verify should reject close frequencies")
	}
	if err := Verify([]float64{6.3, 6.5}, c, 0.21); err == nil {
		t.Fatal("Verify should reject sideband collision (gap == |α| = 0.2)")
	}
	if err := Verify([]float64{5.0}, c, 0.01); err == nil {
		t.Fatal("Verify should reject out-of-band frequency")
	}
}

func TestAssignByOccupancy(t *testing.T) {
	occ := []int{5, 2, 9}
	freqs := []float64{6.2, 6.5, 6.8}
	m := AssignByOccupancy(occ, freqs)
	// Color 2 (9 uses) gets the highest frequency, then 0, then 1.
	if m[2] != 6.8 || m[0] != 6.5 || m[1] != 6.2 {
		t.Fatalf("occupancy ordering wrong: %v", m)
	}
}

func TestAssignByOccupancyTieBreak(t *testing.T) {
	occ := []int{3, 3}
	m := AssignByOccupancy(occ, []float64{6.2, 6.8})
	if m[0] != 6.8 || m[1] != 6.2 {
		t.Fatalf("tie should favor smaller color id: %v", m)
	}
}

func TestAssignByOccupancyPanicsOnShortFreqs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	AssignByOccupancy([]int{1, 1}, []float64{6.2})
}

func TestPartitionFor(t *testing.T) {
	p := PartitionFor(4.95, 6.95)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.ExclusionWidth() <= 0 {
		t.Fatal("no exclusion region")
	}
	// Proportions: 40/20/40.
	span := 6.95 - 4.95
	if math.Abs((p.ParkHi-p.ParkLo)-0.4*span) > 1e-9 {
		t.Fatalf("parking width = %v", p.ParkHi-p.ParkLo)
	}
	if math.Abs(p.ExclusionWidth()-0.2*span) > 1e-9 {
		t.Fatalf("exclusion width = %v", p.ExclusionWidth())
	}
}

func TestPartitionConfigs(t *testing.T) {
	p := PartitionFor(5.0, 7.0)
	pc := p.ParkingConfig(-0.2)
	ic := p.InteractionConfig(-0.2)
	if pc.Lo != p.ParkLo || pc.Hi != p.ParkHi || ic.Lo != p.IntLo || ic.Hi != p.IntHi {
		t.Fatal("config bands do not match partition")
	}
	if pc.Alpha != -0.2 || ic.Alpha != -0.2 {
		t.Fatal("alpha not propagated")
	}
}

func TestPartitionValidateRejectsMalformed(t *testing.T) {
	bad := Partition{ParkLo: 5, ParkHi: 6, IntLo: 5.5, IntHi: 7}
	if bad.Validate() == nil {
		t.Fatal("overlapping partition should fail validation")
	}
}

// Property: any solution from Solve verifies at its own δ, frequencies are
// strictly ascending, and all lie within the band.
func TestSolvePropertyAlwaysValid(t *testing.T) {
	prop := func(kRaw uint8, loRaw, widthRaw uint16) bool {
		k := int(kRaw%6) + 1
		lo := 5.0 + 2*float64(loRaw)/65535
		width := 0.3 + 1.2*float64(widthRaw)/65535
		c := Config{Lo: lo, Hi: lo + width, Alpha: -0.2}
		xs, delta, err := Solve(k, c)
		if err != nil {
			return true // infeasible is acceptable for narrow bands
		}
		if len(xs) != k {
			return false
		}
		for i := 1; i < len(xs); i++ {
			if xs[i] <= xs[i-1] {
				return false
			}
		}
		if k >= 2 {
			return Verify(xs, c, delta-1e-6) == nil
		}
		return Verify(xs, c, 0) == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkSMTSolve measures one 8-color bisection, the solve a slice miss
// pays when its color count is not cached yet.
func BenchmarkSMTSolve(b *testing.B) {
	cfg := Config{Lo: 5.0, Hi: 7.0, Alpha: -0.2}
	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := Solve(8, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}
