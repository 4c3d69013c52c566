package expt

import (
	"fmt"
	"math"

	"fastsc/internal/compile"
	"fastsc/internal/core"
)

// Fig9Result carries the success-rate matrix behind Fig 9 plus the paper's
// headline aggregates.
type Fig9Result struct {
	Table *Table
	// Success[benchmark][strategy].
	Success map[string]map[string]float64
	// MeanCDOverU is the arithmetic mean of per-benchmark ColorDynamic /
	// Baseline U success ratios (the paper reports 13.3×).
	MeanCDOverU float64
	// GeoMeanCDOverU is the geometric mean of the same ratios.
	GeoMeanCDOverU float64
	// GeoMeanCDOverG compares against the tunable-coupler architecture
	// (≈1 means parity, the paper's "matching" claim).
	GeoMeanCDOverG float64
}

// Fig9SuccessRates reproduces Fig 9: worst-case program success rate for
// every benchmark under the five strategies of Table I. The full
// benchmark × strategy matrix is fanned through the batch engine under ctx
// (the zero Context runs with default parallelism and no cache).
func Fig9SuccessRates(ctx *compile.Context) (*Fig9Result, error) {
	strategies := core.Strategies()
	suite := Suite()
	var jobs []core.BatchJob
	for _, b := range suite {
		sys := GridSystem(b.Qubits)
		circ := b.Circuit(sys.Device)
		for _, s := range strategies {
			jobs = append(jobs, core.BatchJob{
				Key:      b.Name + "/" + s,
				Circuit:  circ,
				System:   sys,
				Strategy: s,
				Config:   jobConfig(b),
			})
		}
	}
	results, err := core.BatchCollect(ctx, jobs)
	if err != nil {
		return nil, fmt.Errorf("fig9: %w", err)
	}

	res := &Fig9Result{Success: map[string]map[string]float64{}}
	t := &Table{
		ID:      "fig9",
		Title:   "Worst-case program success rate (log scale in the paper)",
		Columns: append([]string{"benchmark"}, strategies...),
	}
	var sumRatio, sumLogU, sumLogG float64
	var count int
	for _, b := range suite {
		row := []string{b.Name}
		perStrategy := map[string]float64{}
		for _, s := range strategies {
			r := results[b.Name+"/"+s]
			perStrategy[s] = r.Report.Success
			row = append(row, fmtG(r.Report.Success))
		}
		res.Success[b.Name] = perStrategy
		t.Rows = append(t.Rows, row)
		if u := perStrategy[core.BaselineU]; u > 0 {
			ratio := perStrategy[core.ColorDynamic] / u
			sumRatio += ratio
			sumLogU += math.Log(ratio)
			count++
		}
		if g := perStrategy[core.BaselineG]; g > 0 {
			sumLogG += math.Log(perStrategy[core.ColorDynamic] / g)
		}
	}
	if count > 0 {
		res.MeanCDOverU = sumRatio / float64(count)
		res.GeoMeanCDOverU = math.Exp(sumLogU / float64(count))
	}
	res.GeoMeanCDOverG = math.Exp(sumLogG / float64(len(suite)))
	res.Table = t
	t.Notes = append(t.Notes,
		fmt.Sprintf("ColorDynamic vs Baseline U: mean ratio %.1fx, geomean %.1fx (paper: 13.3x mean)",
			res.MeanCDOverU, res.GeoMeanCDOverU),
		fmt.Sprintf("ColorDynamic vs Baseline G (tunable coupler): geomean %.2fx (paper: parity)",
			res.GeoMeanCDOverG),
	)
	return res, nil
}
