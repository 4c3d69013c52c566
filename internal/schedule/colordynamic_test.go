package schedule

import (
	"testing"

	"fastsc/internal/compile"
	"fastsc/internal/smt"
)

// TestMaxColorsFeasibleMatchesLinearScan pins the galloping color-budget
// probe to the linear scan it replaced, across band widths (which move the
// answer through the whole 1..cap range) and caps (including caps below,
// at, and above the answer).
func TestMaxColorsFeasibleMatchesLinearScan(t *testing.T) {
	linear := func(cfg smt.Config, cap int) int {
		best := 1
		for k := 2; k <= cap; k++ {
			if _, _, err := smt.Solve(k, cfg); err != nil {
				break
			}
			best = k
		}
		return best
	}
	for _, width := range []float64{0.05, 0.2, 0.5, 0.75, 1.5, 3.0} {
		cfg := smt.Config{Lo: 6.0, Hi: 6.0 + width, Alpha: -0.2, MinDelta: 0.04}
		for cap := 1; cap <= 20; cap++ {
			want := linear(cfg, cap)
			if got := maxColorsFeasible(&compile.Context{}, cfg, cap); got != want {
				t.Fatalf("width=%v cap=%d: galloping probe = %d, linear scan = %d", width, cap, got, want)
			}
		}
	}
}
