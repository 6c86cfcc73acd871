package precompute

import (
	"context"
	"math"
	"slices"
	"testing"

	"aqppp/internal/stats"
)

// iidView builds a view with i.i.d. values and distinct C (Theorem 1's
// assumptions).
func iidView(n int, seed uint64) *View {
	r := stats.NewRNG(seed)
	a := make([]float64, n)
	c := make([]float64, n)
	for i := range a {
		a[i] = 10 + 3*r.NormFloat64()
		c[i] = float64(i + 1)
	}
	return NewViewFromSlices(a, c, n*20, 0.95)
}

// correlatedView builds the Figure 4(b) setting: the first half of A is
// constant, the second half has large variance.
func correlatedView(n int, seed uint64) *View {
	r := stats.NewRNG(seed)
	a := make([]float64, n)
	c := make([]float64, n)
	for i := range a {
		c[i] = float64(i + 1)
		if i < n/2 {
			a[i] = 0
		} else {
			a[i] = 100 * r.NormFloat64()
		}
	}
	return NewViewFromSlices(a, c, n*20, 0.95)
}

func TestEqualPartitionBasic(t *testing.T) {
	v := iidView(100, 1)
	cuts, err := EqualPartition(v, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{25, 50, 75, 100}
	if len(cuts) != 4 {
		t.Fatalf("cuts = %v", cuts)
	}
	for i := range want {
		if cuts[i] != want[i] {
			t.Errorf("cut %d = %d, want %d", i, cuts[i], want[i])
		}
	}
}

func TestEqualPartitionSnapsDuplicates(t *testing.T) {
	// Figure 4(a): C has heavy duplication so the midpoint is infeasible.
	a := []float64{1, 2, 3, 4, 5, 6, 7}
	c := []float64{1, 1, 1, 1, 1, 2, 3}
	v := NewViewFromSlices(a, c, 7, 0.95)
	cuts, err := EqualPartition(v, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range cuts {
		if !v.Feasible(cut) {
			t.Errorf("infeasible cut %d", cut)
		}
	}
	if cuts[len(cuts)-1] != 7 {
		t.Error("last cut not at n")
	}
}

func TestEqualPartitionFewDistinct(t *testing.T) {
	v := NewViewFromSlices(
		[]float64{1, 2, 3, 4},
		[]float64{1, 1, 2, 2},
		4, 0.95)
	cuts, err := EqualPartition(v, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(cuts) > 2 {
		t.Errorf("more cuts than distinct values: %v", cuts)
	}
}

func TestEqualPartitionValidation(t *testing.T) {
	v := iidView(10, 2)
	if _, err := EqualPartition(v, 0); err == nil {
		t.Error("k=0 accepted")
	}
	empty := NewViewFromSlices(nil, nil, 0, 0.95)
	if _, err := EqualPartition(empty, 2); err == nil {
		t.Error("empty view accepted")
	}
}

func TestPositionErrorsZeroAtCuts(t *testing.T) {
	v := iidView(60, 3)
	cuts := []int{20, 40, 60}
	errs := PositionErrors(v, cuts)
	if len(errs) != 61 {
		t.Fatalf("len = %d", len(errs))
	}
	for _, c := range append([]int{0}, cuts...) {
		if errs[c] != 0 {
			t.Errorf("error at cut %d = %v, want 0", c, errs[c])
		}
	}
	// Mid-block positions must carry positive error.
	if errs[10] <= 0 || errs[30] <= 0 {
		t.Error("mid-block error not positive")
	}
}

func TestPositionErrorsInfeasibleZero(t *testing.T) {
	v := NewViewFromSlices(
		[]float64{5, 6, 7, 8},
		[]float64{1, 1, 2, 2},
		4, 0.95)
	errs := PositionErrors(v, []int{2, 4})
	if errs[1] != 0 || errs[3] != 0 {
		t.Errorf("infeasible positions carry error: %v", errs)
	}
}

func TestErrorUpDecreasesWithK(t *testing.T) {
	v := iidView(500, 4)
	var prev float64
	for i, k := range []int{2, 5, 10, 25, 50} {
		cuts, err := EqualPartition(v, k)
		if err != nil {
			t.Fatal(err)
		}
		e := ErrorUp(v, cuts)
		if i > 0 && e > prev*1.05 {
			t.Errorf("error_up rose from %v to %v at k=%d", prev, e, k)
		}
		prev = e
	}
}

func TestErrorUpMatchesLemma4Scaling(t *testing.T) {
	// Under the i.i.d. assumptions, error(Q, P_eq) = λN sqrt(σ_eq²/n) with
	// σ_eq² = E[D²]/k − (E[D])²/k². error_up sums the two worst endpoint
	// errors, each ≈ λN/√n · sd of half a block, so the k-scaling is the
	// interesting part: doubling k should shrink error_up by ~√2.
	v := iidView(2000, 5)
	cuts1, _ := EqualPartition(v, 10)
	cuts2, _ := EqualPartition(v, 40)
	e1 := ErrorUp(v, cuts1)
	e2 := ErrorUp(v, cuts2)
	ratio := e1 / e2
	if ratio < 1.5 || ratio > 2.8 {
		t.Errorf("error_up(k=10)/error_up(k=40) = %v, want ≈ 2", ratio)
	}
}

func TestHillClimbNeverWorsens(t *testing.T) {
	for seed := uint64(0); seed < 5; seed++ {
		v := correlatedView(400, seed)
		init, err := EqualPartition(v, 8)
		if err != nil {
			t.Fatal(err)
		}
		res, err := HillClimb(context.Background(), v, init, ClimbConfig{Mode: Global})
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(res.Trace); i++ {
			if res.Trace[i] > res.Trace[i-1] {
				t.Fatalf("seed %d: trace increased at %d: %v", seed, i, res.Trace)
			}
		}
		if res.Cuts[len(res.Cuts)-1] != v.Len() {
			t.Error("final cut moved away from n")
		}
		if len(res.Cuts) != len(init) {
			t.Errorf("cut count changed: %d -> %d", len(init), len(res.Cuts))
		}
	}
}

func TestHillClimbImprovesOnCorrelatedData(t *testing.T) {
	// Figure 4(b): half the data is constant; the equal partition wastes
	// points there. Hill climbing should strictly beat it.
	v := correlatedView(800, 11)
	init, _ := EqualPartition(v, 8)
	initErr := ErrorUp(v, init)
	res, err := HillClimb(context.Background(), v, init, ClimbConfig{Mode: Global})
	if err != nil {
		t.Fatal(err)
	}
	finalErr := res.Trace[len(res.Trace)-1]
	if finalErr >= initErr*0.95 {
		t.Errorf("hill climbing barely improved: %v -> %v", initErr, finalErr)
	}
	// More cuts should land in the high-variance second half.
	secondHalf := 0
	for _, c := range res.Cuts {
		if c > v.Len()/2 {
			secondHalf++
		}
	}
	if secondHalf <= len(res.Cuts)/2 {
		t.Errorf("cuts %v not concentrated in the noisy half", res.Cuts)
	}
}

func TestGlobalBeatsLocal(t *testing.T) {
	// Figure 8's claim: local adjustment converges early to a worse bound.
	var globalWins int
	for seed := uint64(0); seed < 5; seed++ {
		v := correlatedView(600, 100+seed)
		init, _ := EqualPartition(v, 10)
		g, err := HillClimb(context.Background(), v, init, ClimbConfig{Mode: Global})
		if err != nil {
			t.Fatal(err)
		}
		l, err := HillClimb(context.Background(), v, init, ClimbConfig{Mode: Local})
		if err != nil {
			t.Fatal(err)
		}
		ge := g.Trace[len(g.Trace)-1]
		le := l.Trace[len(l.Trace)-1]
		if ge <= le+1e-9 {
			globalWins++
		}
	}
	if globalWins < 4 {
		t.Errorf("global beat local in only %d/5 runs", globalWins)
	}
}

func TestHillClimbValidation(t *testing.T) {
	v := iidView(50, 12)
	if _, err := HillClimb(context.Background(), v, []int{10, 20}, ClimbConfig{}); err == nil {
		t.Error("cuts not ending at n accepted")
	}
	if _, err := HillClimb(context.Background(), v, nil, ClimbConfig{}); err == nil {
		t.Error("empty cuts accepted")
	}
}

func TestHillClimbIterationCap(t *testing.T) {
	v := correlatedView(400, 13)
	init, _ := EqualPartition(v, 8)
	res, err := HillClimb(context.Background(), v, init, ClimbConfig{Mode: Global, MaxIterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations > 2 {
		t.Errorf("iterations = %d, cap was 2", res.Iterations)
	}
}

func TestOptimize1DOnNearOptimalStaysPut(t *testing.T) {
	// On i.i.d. data the equal partition is optimal (Theorem 1); hill
	// climbing may shuffle a little but must not end up meaningfully
	// worse.
	v := iidView(1000, 14)
	init, _ := EqualPartition(v, 10)
	initErr := ErrorUp(v, init)
	res, err := Optimize1D(context.Background(), v, 10, ClimbConfig{Mode: Global})
	if err != nil {
		t.Fatal(err)
	}
	if final := res.Trace[len(res.Trace)-1]; final > initErr+1e-9 {
		t.Errorf("optimizer worsened the equal partition: %v -> %v", initErr, final)
	}
}

func TestAdjustModeString(t *testing.T) {
	if Global.String() != "global" || Local.String() != "local" {
		t.Error("AdjustMode.String wrong")
	}
}

func TestErrorUpNonNegative(t *testing.T) {
	v := iidView(100, 15)
	cuts, _ := EqualPartition(v, 5)
	if e := ErrorUp(v, cuts); e < 0 || math.IsNaN(e) {
		t.Errorf("error_up = %v", e)
	}
}

func TestMoreCutsNeverIncreaseErrorUp(t *testing.T) {
	// Refining a partition cannot make the worst endpoint pair worse:
	// every block only shrinks.
	r := stats.NewRNG(77)
	for trial := 0; trial < 20; trial++ {
		v := iidView(300, uint64(trial))
		k := r.Intn(6) + 2
		cuts, err := EqualPartition(v, k)
		if err != nil {
			t.Fatal(err)
		}
		before := ErrorUp(v, cuts)
		// Insert one extra feasible cut at a random free position.
		pos := v.SnapFeasible(r.Intn(v.Len()-2) + 1)
		if pos <= 0 || containsInt(cuts, pos) {
			continue
		}
		refined := append([]int(nil), cuts...)
		refined = append(refined, pos)
		slices.Sort(refined)
		after := ErrorUp(v, refined)
		if after > before+1e-9 {
			t.Fatalf("trial %d: error_up rose from %v to %v after refining", trial, before, after)
		}
	}
}

func TestPositionErrorsLengthInvariant(t *testing.T) {
	v := iidView(123, 9)
	cuts, _ := EqualPartition(v, 5)
	if got := len(PositionErrors(v, cuts)); got != 124 {
		t.Errorf("len = %d, want n+1", got)
	}
}
