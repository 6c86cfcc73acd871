package core

import (
	"context"
	"math"
	"reflect"
	"sort"
	"testing"

	"aqppp/internal/cube"
	"aqppp/internal/dataset"
	"aqppp/internal/engine"
	"aqppp/internal/precompute"
	"aqppp/internal/stats"
)

// oracleOrder is the comparator sort the "ordered by C" builds ran on
// before the radix kernel, with NaN last.
func oracleOrder(c *engine.Column) []int {
	idx := make([]int, c.Len())
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		x, y := c.Ordinal(idx[a]), c.Ordinal(idx[b])
		if math.IsNaN(x) || math.IsNaN(y) {
			return !math.IsNaN(x)
		}
		return x < y
	})
	return idx
}

// oracleGather reads the ordinals of rows idx one Ordinal call at a
// time.
func oracleGather(c *engine.Column, idx []int) []float64 {
	out := make([]float64, len(idx))
	for i, row := range idx {
		out[i] = c.Ordinal(row)
	}
	return out
}

// sameFloats compares two slices by their bits.
func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestBuildMatchesOracleOrder: Build's views, partition points, SUM and
// COUNT cube cells and min/max pairs equal, bit for bit, what the same
// pipeline gives when every "ordered by C" step uses the comparator
// oracle and row-at-a-time Ordinal reads.
func TestBuildMatchesOracleOrder(t *testing.T) {
	ctx := context.Background()
	tbl := dataset.TPCDSkew(dataset.TPCDConfig{Rows: 30000, Seed: 42})
	tmpl := cube.Template{Agg: "l_extendedprice", Dims: []string{"l_shipdate", "l_suppkey"}}
	p, _, err := Build(ctx, tbl, BuildConfig{Template: tmpl, SampleRate: 0.05, CellBudget: 400,
		Seed: 7, WithCountCube: true, WithMinMax: true})
	if err != nil {
		t.Fatal(err)
	}
	climb := precompute.ClimbConfig{MaxIterations: 50}
	agg := p.Sample.Table.MustColumn(tmpl.Agg)
	views := make([]*precompute.View, len(tmpl.Dims))
	profiles := make([]*precompute.Profile, len(tmpl.Dims))
	for i, dim := range tmpl.Dims {
		c := p.Sample.Table.MustColumn(dim)
		idx := oracleOrder(c)
		views[i] = precompute.NewViewFromSlices(oracleGather(agg, idx), oracleGather(c, idx), p.Sample.SourceRows, 0.95)
		got, err := precompute.NewView(p.Sample, tmpl.Agg, dim, 0.95)
		if err != nil {
			t.Fatal(err)
		}
		if !sameFloats(got.A, views[i].A) || !sameFloats(got.C, views[i].C) {
			t.Fatalf("view on %s differs from the oracle order", dim)
		}
		if profiles[i], err = precompute.BuildProfile(ctx, views[i], 400, 8, climb); err != nil {
			t.Fatal(err)
		}
	}
	shape, err := precompute.DetermineShape(profiles, 400)
	if err != nil {
		t.Fatal(err)
	}
	points := make([][]float64, len(views))
	for i, v := range views {
		res, err := precompute.Optimize1D(ctx, v, shape.Ks[i], climb)
		if err != nil {
			t.Fatal(err)
		}
		if points[i], err = v.CutsToPoints(res.Cuts); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		got  *cube.BPCube
		tmpl cube.Template
	}{{p.Cube, tmpl}, {p.CountCube, cube.Template{Dims: tmpl.Dims}}} {
		want, err := cube.Build(tbl, c.tmpl, points)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(c.got.Points, want.Points) || !sameFloats(c.got.Cells, want.Cells) {
			t.Fatalf("%v: partition points or cells differ from the oracle build", c.tmpl)
		}
	}
	if len(p.MinMax) != len(tmpl.Dims) {
		t.Fatalf("%d min/max indexes, want %d", len(p.MinMax), len(tmpl.Dims))
	}
	for i, dim := range tmpl.Dims {
		idx := oracleOrder(tbl.MustColumn(dim))
		ords, vals := p.MinMax[i].Pairs()
		if !sameFloats(ords, oracleGather(tbl.MustColumn(dim), idx)) || !sameFloats(vals, oracleGather(tbl.MustColumn(tmpl.Agg), idx)) {
			t.Fatalf("min/max pairs on %s differ from the oracle order", dim)
		}
	}
}

// TestBuildNaNDimensionCellsMatchScan: when a template dimension holds
// NaN rows, in the sample as well as the table, every partition point
// is finite, the last one is the dimension's domain max, and every SUM
// and COUNT prefix cell equals an exact scan of the rows at or below
// its corner (a NaN row lies below no corner).
func TestBuildNaNDimensionCellsMatchScan(t *testing.T) {
	const n = 20000
	r := stats.NewRNG(5)
	a, c1, c2 := make([]float64, n), make([]float64, n), make([]int64, n)
	for i := range a {
		a[i] = r.Float64() * 1000
		c1[i] = math.Floor(r.Float64() * 300)
		if r.Intn(30) == 0 {
			c1[i] = math.NaN()
		}
		c2[i] = int64(r.Intn(50))
	}
	tbl := engine.MustNewTable("t", engine.NewFloatColumn("a", a),
		engine.NewFloatColumn("c1", c1), engine.NewIntColumn("c2", c2))
	tmpl := cube.Template{Agg: "a", Dims: []string{"c1", "c2"}}
	p, _, err := Build(context.Background(), tbl, BuildConfig{Template: tmpl, SampleRate: 0.05,
		CellBudget: 200, Seed: 3, WithCountCube: true})
	if err != nil {
		t.Fatal(err)
	}
	sampleNaN := false
	for _, v := range p.Sample.Table.MustColumn("c1").Floats {
		sampleNaN = sampleNaN || math.IsNaN(v)
	}
	if !sampleNaN {
		t.Fatal("the sample holds no NaN row on c1; the test checks nothing")
	}
	for _, c := range []*cube.BPCube{p.Cube, p.CountCube} {
		for i, dim := range tmpl.Dims {
			pts := c.Points[i]
			_, hi := tbl.MustColumn(dim).OrdinalDomain()
			for _, v := range pts {
				if math.IsNaN(v) {
					t.Fatalf("%v: NaN partition point on %s: %v", c.Template, dim, pts)
				}
			}
			if pts[len(pts)-1] != hi {
				t.Fatalf("%v: last point on %s is %v, domain max %v", c.Template, dim, pts[len(pts)-1], hi)
			}
		}
		f := engine.Count
		if c.Template.Agg != "" {
			f = engine.Sum
		}
		for i, x := range c.Points[0] {
			for j, y := range c.Points[1] {
				q := engine.Query{Func: f, Col: c.Template.Agg, Ranges: []engine.Range{
					{Col: "c1", Lo: math.Inf(-1), Hi: x}, {Col: "c2", Lo: math.Inf(-1), Hi: y}}}
				truth, err := tbl.Execute(context.Background(), q)
				if err != nil {
					t.Fatal(err)
				}
				if got := c.PrefixSum([]int{i, j}); !stats.ApproxEqual(got, truth.Value, 1e-9) {
					t.Fatalf("%v cell (%d, %d) at (%v, %v) = %v, scan %v", f, i, j, x, y, got, truth.Value)
				}
			}
		}
	}
}
