// Package smt assigns concrete frequencies to crosstalk-graph colors — the
// paper's "SMT solver optimization" step (§V-B3). The constraint system
// (eqs. 1–3) asks for |C| frequencies inside a band such that every pair is
// separated by at least δ both directly and through the ω12 sideband
// shifted by the anharmonicity α:
//
//	∀c:       lo ≤ x_c ≤ hi                 (1)
//	∀i≠j:     |x_i − x_j| ≥ δ               (2)
//	∀i≠j:     |x_i + α − x_j| ≥ δ           (3)
//
// smt_find (here Solve) binary-searches the largest δ for which a feasible
// assignment exists. Because colors are interchangeable, we break symmetry
// by ordering x_0 ≤ x_1 ≤ … and place frequencies greedily bottom-up,
// skipping the sideband-forbidden zones — an exact decision procedure for
// this difference-logic fragment under the fixed ordering.
package smt

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Config bounds a frequency-assignment problem.
type Config struct {
	// Lo, Hi delimit the allowed band in GHz (eq. 1).
	Lo, Hi float64
	// Alpha is the transmon anharmonicity in GHz (negative; |α| ≈ 0.2).
	Alpha float64
	// MinDelta is the smallest separation worth searching for; below this
	// the assignment is reported infeasible. Defaults to 1 MHz when zero.
	MinDelta float64
}

func (c Config) minDelta() float64 {
	if c.MinDelta > 0 {
		return c.MinDelta
	}
	return 0.001
}

// ErrInfeasible is returned when no assignment exists with at least the
// configured minimum separation.
var ErrInfeasible = errors.New("smt: no feasible frequency assignment")

// Feasible attempts to place k frequencies with separation delta under cfg.
// It returns the frequencies in ascending order and whether placement
// succeeded. The placement is greedy bottom-up: each frequency takes the
// smallest value that respects the direct separation (≥ previous + δ) and
// avoids every earlier frequency's sideband-forbidden zone
// (x_j + |α| − δ, x_j + |α| + δ).
func Feasible(k int, cfg Config, delta float64) ([]float64, bool) {
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
		// Bump v past any sideband-forbidden zone of earlier placements.
		// The zones (x_j+|α|−δ, x_j+|α|+δ) are sorted (xs is ascending), and
		// v only ever increases past a zone's upper edge, so one ascending
		// scan reaches the fixpoint the repeated rescan used to: after
		// bumping to zone j's end, every earlier zone's end lies at or
		// below it, so no earlier zone can contain v again.
		for _, xj := range xs {
			lo := xj + absAlpha - delta
			hi := xj + absAlpha + delta
			if v > lo && v < hi {
				v = hi
			}
		}
		if v > cfg.Hi+1e-12 {
			return nil, false
		}
		xs = append(xs, v)
	}
	return xs, true
}

// Solve finds k frequencies in cfg's band maximizing the separation
// threshold δ by binary search (the paper's smt_find). It returns the
// ascending frequencies and the achieved δ, or ErrInfeasible when even the
// minimum separation cannot be met.
func Solve(k int, cfg Config) ([]float64, float64, error) {
	if k <= 0 {
		return nil, 0, nil
	}
	if cfg.Hi < cfg.Lo {
		return nil, 0, fmt.Errorf("smt: empty band [%v, %v]", cfg.Lo, cfg.Hi)
	}
	minD := cfg.minDelta()
	if _, ok := Feasible(k, cfg, minD); !ok {
		return nil, 0, fmt.Errorf("%w: %d colors in [%.3f, %.3f] GHz", ErrInfeasible, k, cfg.Lo, cfg.Hi)
	}
	// Upper bound: spreading k points over the band plus one sideband hop
	// can never beat span + |α|.
	lo, hi := minD, cfg.Hi-cfg.Lo+math.Abs(cfg.Alpha)+1
	if k == 1 {
		// A single frequency trivially satisfies any δ; report the band
		// floor with the search ceiling as separation.
		xs, _ := Feasible(1, cfg, minD)
		return xs, hi, nil
	}
	for i := 0; i < 50; i++ {
		mid := (lo + hi) / 2
		if _, ok := Feasible(k, cfg, mid); ok {
			lo = mid
		} else {
			hi = mid
		}
	}
	xs, ok := Feasible(k, cfg, lo)
	if !ok {
		// Numerical edge: fall back to the known-feasible floor.
		xs, _ = Feasible(k, cfg, minD)
		return xs, minD, nil
	}
	return xs, lo, nil
}

// Verify checks that xs satisfies the constraint system at separation delta
// (useful for tests and debugging).
func Verify(xs []float64, cfg Config, delta float64) error {
	absAlpha := math.Abs(cfg.Alpha)
	for i, x := range xs {
		if x < cfg.Lo-1e-9 || x > cfg.Hi+1e-9 {
			return fmt.Errorf("smt: x[%d]=%v outside band [%v, %v]", i, x, cfg.Lo, cfg.Hi)
		}
		for j, y := range xs {
			if i == j {
				continue
			}
			if math.Abs(x-y) < delta-1e-9 {
				return fmt.Errorf("smt: |x[%d]−x[%d]| = %v < δ=%v", i, j, math.Abs(x-y), delta)
			}
			if math.Abs(x-absAlpha-y) < delta-1e-9 {
				return fmt.Errorf("smt: sideband |x[%d]+α−x[%d]| = %v < δ=%v",
					i, j, math.Abs(x-absAlpha-y), delta)
			}
		}
	}
	return nil
}

// AssignByOccupancy maps colors to frequencies using the paper's total
// ordering (§V-B3): colors used by more gates receive higher frequencies,
// because higher interaction frequency means stronger coupling and faster
// gates (t_gate ~ 1/ω). freqs must be ascending (as returned by Solve);
// occupancy[c] is the use count of color c (as graph.Coloring.ColorCounts
// produces). The result is dense: out[c] is color c's frequency. Ties break
// toward the smaller color id for determinism.
func AssignByOccupancy(occupancy []int, freqs []float64) []float64 {
	colors := make([]int, len(occupancy))
	for c := range colors {
		colors[c] = c
	}
	sort.Slice(colors, func(i, j int) bool {
		if occupancy[colors[i]] != occupancy[colors[j]] {
			return occupancy[colors[i]] > occupancy[colors[j]]
		}
		return colors[i] < colors[j]
	})
	if len(colors) > len(freqs) {
		panic(fmt.Sprintf("smt: %d colors but only %d frequencies", len(colors), len(freqs)))
	}
	out := make([]float64, len(colors))
	for rank, c := range colors {
		// Highest frequency to the most-used color.
		out[c] = freqs[len(freqs)-1-rank]
	}
	return out
}
