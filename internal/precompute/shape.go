package precompute

import (
	"fmt"
	"math"
)

// ShapeResult reports the multidimensional budget split.
type ShapeResult struct {
	// Ks is the per-dimension budget k_i with ∏k_i <= budget.
	Ks []int
	// Err is the resulting bound max_i ErrorAt(k_i): the error level the
	// binary search converged to.
	Err float64
}

// DetermineShape splits a total cell budget across dimensions using the
// paper's Figure 6 binary search: it searches the error axis for the
// lowest common error level e whose per-dimension budgets KFor(e) still
// multiply within the budget, then greedily spends any leftover budget on
// the dimension whose error it reduces most.
func DetermineShape(profiles []*Profile, budget int) (ShapeResult, error) {
	d := len(profiles)
	if d == 0 {
		return ShapeResult{}, fmt.Errorf("precompute: no profiles")
	}
	if budget < 1 {
		return ShapeResult{}, fmt.Errorf("precompute: budget %d < 1", budget)
	}
	hiErr := 0.0
	for _, p := range profiles {
		if e := p.ErrorAt(1); e > hiErr {
			hiErr = e
		}
	}
	fits := func(e float64) ([]int, bool) {
		ks := make([]int, d)
		prod := 1
		for i, p := range profiles {
			ks[i] = p.KFor(e)
			if ks[i] < 1 {
				ks[i] = 1
			}
			// prod <= budget here and k_i <= MaxK, so the product fits
			// comfortably in int64 on 64-bit platforms.
			prod *= ks[i]
			if prod > budget {
				return nil, false
			}
		}
		return ks, true
	}
	lo, hi := 0.0, hiErr
	best, ok := fits(hi)
	if !ok {
		// Even the one-point-per-dimension cube exceeds the budget.
		if pow := int(math.Pow(float64(budget), 1/float64(d))); pow >= 1 {
			ks := make([]int, d)
			for i := range ks {
				ks[i] = 1
			}
			return ShapeResult{Ks: ks, Err: hiErr}, nil
		}
	}
	for iter := 0; iter < 60; iter++ {
		mid := (lo + hi) / 2
		if ks, ok := fits(mid); ok {
			best = ks
			hi = mid
		} else {
			lo = mid
		}
	}
	if best == nil {
		best = make([]int, d)
		for i := range best {
			best[i] = 1
		}
	}
	// Spend leftover budget greedily: bump the dimension with the largest
	// current error while the product stays within budget.
	for {
		prod := 1
		for _, k := range best {
			prod *= k
		}
		bestDim := -1
		bestGain := 0.0
		for i, p := range profiles {
			if best[i] >= p.MaxK {
				continue
			}
			newProd := prod / best[i] * (best[i] + 1)
			if newProd > budget {
				continue
			}
			gain := p.ErrorAt(best[i]) - p.ErrorAt(best[i]+1)
			if gain > bestGain {
				bestGain = gain
				bestDim = i
			}
		}
		if bestDim < 0 {
			break
		}
		best[bestDim]++
	}
	errMax := 0.0
	for i, p := range profiles {
		if e := p.ErrorAt(best[i]); e > errMax {
			errMax = e
		}
	}
	return ShapeResult{Ks: best, Err: errMax}, nil
}
