package cube

import (
	"math"
	"testing"

	"aqppp/internal/engine"
	"aqppp/internal/stats"
)

func TestInsertMatchesRebuild(t *testing.T) {
	tbl := randomTable(2, 200, 10, 16)
	tmpl := Template{Agg: "a", Dims: dims(2)}
	points := [][]float64{{3, 6, 10}, {5, 10}}
	c, err := Build(tbl, tmpl, points)
	if err != nil {
		t.Fatal(err)
	}
	// Insert 30 new rows incrementally, then rebuild from an extended
	// table and compare cells.
	r := stats.NewRNG(17)
	newA := append([]float64(nil), tbl.MustColumn("a").Floats...)
	newC := append([]int64(nil), tbl.MustColumn(dimName(0)).Ints...)
	newD := append([]int64(nil), tbl.MustColumn(dimName(1)).Ints...)
	for i := 0; i < 30; i++ {
		v := math.Floor(r.Float64()*100) / 10
		o1 := int64(r.Intn(10) + 1)
		o2 := int64(r.Intn(10) + 1)
		if err := c.Insert([]float64{float64(o1), float64(o2)}, v); err != nil {
			t.Fatal(err)
		}
		newA = append(newA, v)
		newC = append(newC, o1)
		newD = append(newD, o2)
	}
	tbl2 := engine.MustNewTable("t2",
		engine.NewFloatColumn("a", newA),
		engine.NewIntColumn(dimName(0), newC),
		engine.NewIntColumn(dimName(1), newD),
	)
	c2, err := Build(tbl2, tmpl, points)
	if err != nil {
		t.Fatal(err)
	}
	if c.SourceRows != c2.SourceRows {
		t.Errorf("SourceRows %d != %d", c.SourceRows, c2.SourceRows)
	}
	for i := range c.Cells {
		if math.Abs(c.Cells[i]-c2.Cells[i]) > 1e-9 {
			t.Fatalf("cell %d: %v != %v", i, c.Cells[i], c2.Cells[i])
		}
	}
}

func TestInsertValidation(t *testing.T) {
	tbl := randomTable(1, 50, 10, 18)
	c, _ := Build(tbl, Template{Agg: "a", Dims: dims(1)}, [][]float64{{5, 10}})
	if err := c.Insert([]float64{1, 2}, 1); err == nil {
		t.Error("wrong ordinal count accepted")
	}
	if err := c.Insert([]float64{99}, 1); err == nil {
		t.Error("out-of-domain ordinal accepted")
	}
}
