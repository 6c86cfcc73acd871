package cube

import (
	"context"
	"math"
	"testing"

	"aqppp/internal/engine"
	"aqppp/internal/stats"
)

// randomTable builds a d-dimensional table with integer dims in [1, dom]
// and a float measure.
func randomTable(d, n, dom int, seed uint64) *engine.Table {
	r := stats.NewRNG(seed)
	cols := make([]*engine.Column, 0, d+1)
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = math.Floor(r.Float64()*100) / 10
	}
	cols = append(cols, engine.NewFloatColumn("a", vals))
	for j := 0; j < d; j++ {
		dim := make([]int64, n)
		for i := range dim {
			dim[i] = int64(r.Intn(dom) + 1)
		}
		cols = append(cols, engine.NewIntColumn(dimName(j), dim))
	}
	return engine.MustNewTable("t", cols...)
}

func dimName(j int) string { return string(rune('c' + j)) }

func dims(d int) []string {
	out := make([]string, d)
	for j := 0; j < d; j++ {
		out[j] = dimName(j)
	}
	return out
}

// bruteRange computes SUM(a) over rows with ord(dim_i) in (lo_i, hi_i].
func bruteRange(tbl *engine.Table, dimNames []string, lo, hi []float64) float64 {
	n := tbl.NumRows()
	acc := 0.0
	a := tbl.MustColumn("a")
	cols := make([]*engine.Column, len(dimNames))
	for i, d := range dimNames {
		cols[i] = tbl.MustColumn(d)
	}
	for row := 0; row < n; row++ {
		in := true
		for i := range cols {
			v := cols[i].Ordinal(row)
			if !(v > lo[i] && v <= hi[i]) {
				in = false
				break
			}
		}
		if in {
			acc += a.Float(row)
		}
	}
	return acc
}

func TestBuild1DPrefixMatchesBrute(t *testing.T) {
	tbl := randomTable(1, 500, 50, 1)
	c, err := Build(tbl, Template{Agg: "a", Dims: dims(1)}, [][]float64{{10, 20, 30, 40, 50}})
	if err != nil {
		t.Fatal(err)
	}
	for j, p := range c.Points[0] {
		want := bruteRange(tbl, dims(1), []float64{math.Inf(-1)}, []float64{p})
		if got := c.PrefixSum([]int{j}); math.Abs(got-want) > 1e-9 {
			t.Errorf("prefix[%d] = %v, want %v", j, got, want)
		}
	}
}

func TestRangeSumMatchesBruteForceProperty(t *testing.T) {
	// Property test over random cubes and ranges in 1-4 dims.
	r := stats.NewRNG(99)
	for trial := 0; trial < 40; trial++ {
		d := r.Intn(4) + 1
		dom := r.Intn(20) + 5
		tbl := randomTable(d, 300, dom, uint64(trial))
		points := make([][]float64, d)
		for i := range points {
			k := r.Intn(4) + 2
			set := map[int]bool{}
			for len(set) < k {
				set[r.Intn(dom)+1] = true
			}
			var pts []float64
			for v := range set {
				pts = append(pts, float64(v))
			}
			sortFloats(pts)
			points[i] = pts
		}
		c, err := Build(tbl, Template{Agg: "a", Dims: dims(d)}, points)
		if err != nil {
			t.Fatal(err)
		}
		for q := 0; q < 20; q++ {
			lo := make([]int, d)
			hi := make([]int, d)
			loOrd := make([]float64, d)
			hiOrd := make([]float64, d)
			for i := range lo {
				k := len(c.Points[i])
				lo[i] = r.Intn(k+1) - 1 // -1..k-1
				hi[i] = lo[i] + r.Intn(k-lo[i]-1+1)
				if hi[i] < lo[i] {
					hi[i] = lo[i]
				}
				if lo[i] < 0 {
					loOrd[i] = math.Inf(-1)
				} else {
					loOrd[i] = c.Points[i][lo[i]]
				}
				hiOrd[i] = c.Points[i][max0(hi[i])]
				if hi[i] < 0 {
					hiOrd[i] = math.Inf(-1)
				}
			}
			valid := true
			for i := range lo {
				if hi[i] < 0 {
					valid = false
				}
			}
			if !valid {
				continue
			}
			got := c.RangeSum(lo, hi)
			want := bruteRange(tbl, dims(d), loOrd, hiOrd)
			if math.Abs(got-want) > 1e-6 {
				t.Fatalf("trial %d d=%d: RangeSum(%v,%v) = %v, want %v", trial, d, lo, hi, got, want)
			}
		}
	}
}

func max0(x int) int {
	if x < 0 {
		return 0
	}
	return x
}

func sortFloats(xs []float64) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

func TestBuildValidation(t *testing.T) {
	tbl := randomTable(2, 50, 10, 3)
	tmpl := Template{Agg: "a", Dims: dims(2)}
	if _, err := Build(tbl, tmpl, [][]float64{{1, 2}}); err == nil {
		t.Error("wrong point-list count accepted")
	}
	if _, err := Build(tbl, tmpl, [][]float64{{2, 1}, {5}}); err == nil {
		t.Error("descending points accepted")
	}
	if _, err := Build(tbl, Template{Agg: "nope", Dims: dims(2)}, [][]float64{{5}, {5}}); err == nil {
		t.Error("missing agg column accepted")
	}
	if _, err := Build(tbl, Template{Agg: "a", Dims: []string{"nope", "c"}}, [][]float64{{5}, {5}}); err == nil {
		t.Error("missing dim column accepted")
	}
	if _, err := Build(tbl, Template{Agg: "a"}, nil); err == nil {
		t.Error("zero-dimension template accepted")
	}
}

func TestBuildAppendsDomainMax(t *testing.T) {
	tbl := randomTable(1, 100, 30, 4)
	c, err := Build(tbl, Template{Agg: "a", Dims: dims(1)}, [][]float64{{10}})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Points[0]) != 2 {
		t.Fatalf("points = %v, expected domain max appended", c.Points[0])
	}
	truth, _ := tbl.Execute(context.Background(), engine.Query{Func: engine.Sum, Col: "a"})
	if math.Abs(c.TotalSum()-truth.Value) > 1e-9 {
		t.Errorf("TotalSum = %v, want %v", c.TotalSum(), truth.Value)
	}
}

func TestCountCube(t *testing.T) {
	tbl := randomTable(1, 200, 20, 5)
	c, err := Build(tbl, Template{Agg: "", Dims: dims(1)}, [][]float64{{5, 10, 15, 20}})
	if err != nil {
		t.Fatal(err)
	}
	if c.TotalSum() != 200 {
		t.Errorf("COUNT cube total = %v, want 200", c.TotalSum())
	}
}

func TestBracketLeftRight(t *testing.T) {
	tbl := randomTable(1, 100, 100, 6)
	c, err := Build(tbl, Template{Agg: "a", Dims: dims(1)}, [][]float64{{10, 20, 30, 100}})
	if err != nil {
		t.Fatal(err)
	}
	// x=15 falls between 10 and 20.
	lo, hi := c.BracketLeft(0, 15)
	if lo != 0 || hi != 1 {
		t.Errorf("BracketLeft(15) = %d,%d", lo, hi)
	}
	// x=10: the point 10 counts as "smallest >= x"; lo is the region start.
	lo, hi = c.BracketLeft(0, 10)
	if lo != -1 || hi != 0 {
		t.Errorf("BracketLeft(10) = %d,%d", lo, hi)
	}
	// x=5 below all points.
	lo, hi = c.BracketLeft(0, 5)
	if lo != -1 || hi != 0 {
		t.Errorf("BracketLeft(5) = %d,%d", lo, hi)
	}
	// y=25 falls between 20 and 30.
	lo, hi = c.BracketRight(0, 25)
	if lo != 1 || hi != 2 {
		t.Errorf("BracketRight(25) = %d,%d", lo, hi)
	}
	// y=20 aligns exactly: lo is that point.
	lo, hi = c.BracketRight(0, 20)
	if lo != 1 || hi != 2 {
		t.Errorf("BracketRight(20) = %d,%d", lo, hi)
	}
	// y above all points clamps.
	lo, hi = c.BracketRight(0, 500)
	if lo != 3 || hi != 3 {
		t.Errorf("BracketRight(500) = %d,%d", lo, hi)
	}
}

func TestShapeAndSize(t *testing.T) {
	tbl := randomTable(2, 100, 10, 7)
	c, err := Build(tbl, Template{Agg: "a", Dims: dims(2)}, [][]float64{{5, 10}, {3, 6, 10}})
	if err != nil {
		t.Fatal(err)
	}
	s := c.Shape()
	if s[0] != 2 || s[1] != 3 {
		t.Errorf("shape = %v", s)
	}
	if c.NumCells() != 6 {
		t.Errorf("cells = %d", c.NumCells())
	}
	if c.SizeBytes() != 6*8+5*8 {
		t.Errorf("SizeBytes = %d", c.SizeBytes())
	}
	if c.Dims() != 2 {
		t.Errorf("dims = %d", c.Dims())
	}
}

func TestTemplateString(t *testing.T) {
	tm := Template{Agg: "price", Dims: []string{"x", "y"}}
	if got := tm.String(); got != "[SUM(price), x, y]" {
		t.Errorf("String = %q", got)
	}
	cnt := Template{Dims: []string{"x"}}
	if got := cnt.String(); got != "[SUM(*), x]" {
		t.Errorf("count String = %q", got)
	}
}

func TestRangeSumPanics(t *testing.T) {
	tbl := randomTable(1, 50, 10, 8)
	c, _ := Build(tbl, Template{Agg: "a", Dims: dims(1)}, [][]float64{{5, 10}})
	for _, f := range []func(){
		func() { c.RangeSum([]int{0}, []int{0, 1}) },
		func() { c.RangeSum([]int{1}, []int{0}) },
		func() { c.PrefixSum([]int{7}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
	// Empty region returns 0 without panicking.
	if got := c.RangeSum([]int{0}, []int{0}); got != 0 {
		t.Errorf("empty region = %v", got)
	}
}
