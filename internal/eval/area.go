package eval

import (
	"math"
	"repro/internal/core"

	"repro/internal/graph"
	"repro/internal/ir"
	"repro/internal/latency"
)

// AFUArea returns the datapath area of a cut in NAND2-equivalent gates:
// the sum of its operators' areas (one AFU serves every instance of the
// cut, so area is paid once per selection).
func AFUArea(blk *ir.Block, model *latency.Model, cut *graph.BitSet) float64 {
	total := 0.0
	cut.ForEach(func(v int) bool {
		total += model.Area[blk.Nodes[v].Op]
		return true
	})
	return total
}

// SelectionSavings returns the freq-weighted cycles a selection saves per
// profile run (the knapsack value of the selection).
func SelectionSavings(app *ir.Application, model *latency.Model, sel Selection) float64 {
	total := 0.0
	for _, inst := range sel.Instances {
		blk := app.Blocks[inst.BlockIdx]
		total += blk.Freq * core.MetricsOf(blk, model, inst.Nodes).Merit()
	}
	return total
}

// SelectUnderAreaBudget picks the subset of selections maximizing total
// freq-weighted savings under a total AFU area budget (0/1 knapsack; each
// selection pays its cut's datapath area once, regardless of instance
// count — that is exactly why reusable cuts shine under area pressure).
// A budget <= 0 returns all selections.
func SelectUnderAreaBudget(app *ir.Application, model *latency.Model, sels []Selection, budget float64) []Selection {
	if budget <= 0 || len(sels) == 0 {
		return sels
	}
	// Scale areas to integer units of `grain` gates for the DP.
	const grain = 16.0
	cap := int(budget / grain)
	if cap <= 0 {
		return nil
	}
	weights := make([]int, len(sels))
	values := make([]float64, len(sels))
	for i, sel := range sels {
		blk := sel.Cut.Block
		w := int(math.Ceil(AFUArea(blk, model, sel.Cut.Nodes) / grain))
		if w < 1 {
			w = 1
		}
		weights[i] = w
		values[i] = SelectionSavings(app, model, sel)
	}
	// DP over capacity with choice reconstruction.
	best := make([][]float64, len(sels)+1)
	for i := range best {
		best[i] = make([]float64, cap+1)
	}
	for i := 1; i <= len(sels); i++ {
		for c := 0; c <= cap; c++ {
			best[i][c] = best[i-1][c]
			if w := weights[i-1]; c >= w {
				if v := best[i-1][c-w] + values[i-1]; v > best[i][c] {
					best[i][c] = v
				}
			}
		}
	}
	var picked []Selection
	c := cap
	for i := len(sels); i >= 1; i-- {
		if best[i][c] != best[i-1][c] {
			picked = append(picked, sels[i-1])
			c -= weights[i-1]
		}
	}
	// Restore original order.
	for l, r := 0, len(picked)-1; l < r; l, r = l+1, r-1 {
		picked[l], picked[r] = picked[r], picked[l]
	}
	return picked
}

// TotalAFUArea sums the AFU areas of the selections.
func TotalAFUArea(model *latency.Model, sels []Selection) float64 {
	total := 0.0
	for _, sel := range sels {
		total += AFUArea(sel.Cut.Block, model, sel.Cut.Nodes)
	}
	return total
}
