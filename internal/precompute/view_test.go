package precompute

import (
	"math"
	"testing"

	"aqppp/internal/engine"
	"aqppp/internal/sample"
	"aqppp/internal/stats"
)

func uniformSampleOf(t *testing.T, tbl *engine.Table, rate float64, seed uint64) *sample.Sample {
	t.Helper()
	s, err := sample.NewUniform(tbl, rate, seed)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewViewSortedByCondition(t *testing.T) {
	tbl := engine.MustNewTable("t",
		engine.NewIntColumn("c", []int64{5, 1, 3, 2, 4}),
		engine.NewFloatColumn("a", []float64{50, 10, 30, 20, 40}),
	)
	s := uniformSampleOf(t, tbl, 1.0, 1)
	v, err := NewView(s, "a", "c", 0.95)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < v.Len(); i++ {
		if v.C[i-1] > v.C[i] {
			t.Fatalf("C not sorted at %d", i)
		}
	}
	// A follows C's order: c=1→a=10, ..., c=5→a=50.
	for i := 0; i < v.Len(); i++ {
		if v.A[i] != v.C[i]*10 {
			t.Errorf("A[%d] = %v for C = %v", i, v.A[i], v.C[i])
		}
	}
	if v.N != 5 {
		t.Errorf("N = %d", v.N)
	}
	if math.Abs(v.Lambda-1.96) > 0.01 {
		t.Errorf("Lambda = %v", v.Lambda)
	}
}

func TestNewViewCountTemplate(t *testing.T) {
	tbl := engine.MustNewTable("t", engine.NewIntColumn("c", []int64{3, 1, 2}))
	s := uniformSampleOf(t, tbl, 1.0, 2)
	v, err := NewView(s, "", "c", 0.95)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < v.Len(); i++ {
		if v.A[i] != 1 {
			t.Errorf("COUNT view A[%d] = %v", i, v.A[i])
		}
	}
}

func TestNewViewErrors(t *testing.T) {
	tbl := engine.MustNewTable("t", engine.NewIntColumn("c", []int64{1}))
	s := uniformSampleOf(t, tbl, 1.0, 3)
	if _, err := NewView(s, "nope", "c", 0.95); err == nil {
		t.Error("missing agg column accepted")
	}
	if _, err := NewView(s, "", "nope", 0.95); err == nil {
		t.Error("missing cond column accepted")
	}
}

func TestRegionDeviationMatchesDirect(t *testing.T) {
	r := stats.NewRNG(7)
	a := make([]float64, 200)
	c := make([]float64, 200)
	for i := range a {
		a[i] = r.NormFloat64() * 10
		c[i] = float64(i)
	}
	v := NewViewFromSlices(a, c, 200, 0.95)
	for _, seg := range [][2]int{{0, 200}, {10, 50}, {0, 1}, {199, 200}, {50, 50}} {
		lo, hi := seg[0], seg[1]
		masked := make([]float64, 200)
		for i := lo; i < hi; i++ {
			masked[i] = v.A[i]
		}
		want := math.Sqrt(stats.Variance(masked))
		if got := v.regionDeviation(lo, hi); math.Abs(got-want) > 1e-9 {
			t.Errorf("regionDeviation(%d,%d) = %v, want %v", lo, hi, got, want)
		}
	}
}

func TestFeasibleAndSnap(t *testing.T) {
	// C = [1,1,1,2,2,3]: feasible interior cuts are 3 and 5.
	v := NewViewFromSlices(
		[]float64{1, 2, 3, 4, 5, 6},
		[]float64{1, 1, 1, 2, 2, 3},
		6, 0.95)
	wantFeasible := map[int]bool{0: true, 3: true, 5: true, 6: true}
	for i := 0; i <= 6; i++ {
		if got := v.Feasible(i); got != wantFeasible[i] {
			t.Errorf("Feasible(%d) = %v", i, got)
		}
	}
	if got := v.SnapFeasible(4); got != 3 && got != 5 {
		t.Errorf("SnapFeasible(4) = %d", got)
	}
	if got := v.SnapFeasible(1); got != 3 {
		t.Errorf("SnapFeasible(1) = %d, want 3", got)
	}
	// Figure 4(a): middle cut snaps to nearest feasible boundary.
	if got := v.SnapFeasible(3); got != 3 {
		t.Errorf("SnapFeasible(3) = %d, want itself", got)
	}
}

func TestSnapFeasibleAllDuplicates(t *testing.T) {
	v := NewViewFromSlices([]float64{1, 2, 3}, []float64{7, 7, 7}, 3, 0.95)
	if got := v.SnapFeasible(1); got != -1 {
		t.Errorf("SnapFeasible on constant C = %d, want -1", got)
	}
}

func TestCutsToPoints(t *testing.T) {
	v := NewViewFromSlices(
		[]float64{1, 2, 3, 4, 5, 6},
		[]float64{1, 1, 2, 2, 3, 3},
		6, 0.95)
	pts, err := v.CutsToPoints([]int{2, 4, 6})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 2, 3}
	for i := range want {
		if pts[i] != want[i] {
			t.Errorf("point %d = %v, want %v", i, pts[i], want[i])
		}
	}
	if _, err := v.CutsToPoints([]int{1, 6}); err == nil {
		t.Error("infeasible cut accepted")
	}
	if _, err := v.CutsToPoints([]int{0, 6}); err == nil {
		t.Error("zero cut accepted")
	}
	if _, err := v.CutsToPoints([]int{7}); err == nil {
		t.Error("out-of-range cut accepted")
	}
}

func TestNewViewFromSlicesSorts(t *testing.T) {
	v := NewViewFromSlices([]float64{30, 10, 20}, []float64{3, 1, 2}, 3, 0.95)
	if v.C[0] != 1 || v.A[0] != 10 || v.C[2] != 3 || v.A[2] != 30 {
		t.Errorf("view not sorted: C=%v A=%v", v.C, v.A)
	}
}

func TestNewViewFromSlicesPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	NewViewFromSlices([]float64{1}, []float64{1, 2}, 2, 0.95)
}

// TestViewNaNRowsAreZeros: NaN-C rows take no cut position, yet count
// in every region's variance as the zeros they are: each deviation and
// the error scale equal those of a view where each such row is instead
// a zero above every ordinal.
func TestViewNaNRowsAreZeros(t *testing.T) {
	r := stats.NewRNG(9)
	const n = 500
	a, c := make([]float64, n), make([]float64, n)
	za, zc := make([]float64, n), make([]float64, n)
	nans := 0
	for i := range a {
		a[i], c[i] = r.Float64()*10, math.Floor(r.Float64()*50)
		za[i], zc[i] = a[i], c[i]
		if r.Intn(10) == 0 {
			c[i], za[i], zc[i] = math.NaN(), 0, 1000
			nans++
		}
	}
	v := NewViewFromSlices(a, c, 10*n, 0.95)
	z := NewViewFromSlices(za, zc, 10*n, 0.95)
	if nans == 0 || v.Len() != n-nans || z.Len() != n {
		t.Fatalf("Len = %d with %d NaN rows of %d", v.Len(), nans, n)
	}
	for i, x := range v.C {
		if math.IsNaN(x) || x != z.C[i] || v.A[i] != z.A[i] {
			t.Fatalf("row %d: view (%v, %v), zero-row view (%v, %v)", i, v.C[i], v.A[i], z.C[i], z.A[i])
		}
	}
	if v.errScale() != z.errScale() {
		t.Fatalf("errScale %v, zero-row view %v", v.errScale(), z.errScale())
	}
	for lo := 0; lo < v.Len(); lo += 7 {
		for hi := lo + 1; hi <= v.Len(); hi += 11 {
			if got, want := v.regionDeviation(lo, hi), z.regionDeviation(lo, hi); got != want {
				t.Fatalf("regionDeviation(%d, %d) = %v, zero-row view %v", lo, hi, got, want)
			}
		}
	}
}
