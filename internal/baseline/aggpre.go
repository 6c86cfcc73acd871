package baseline

import (
	"aqppp/internal/cube"
	"aqppp/internal/engine"
)

// FullCubeCells returns the number of cells a complete P-Cube holds for
// the template without building it: ∏ distinct(C_i). AggPre is that cube,
// answering every range exactly at preprocessing cost proportional to
// its size; the paper reports its (prohibitive) cost at scale this way
// (Table 1's ">10 TB / >1 day" row).
func FullCubeCells(tbl *engine.Table, tmpl cube.Template) (int64, error) {
	total := int64(1)
	for _, d := range tmpl.Dims {
		col, err := tbl.Column(d)
		if err != nil {
			return 0, err
		}
		distinct := make(map[float64]struct{})
		for i := 0; i < col.Len(); i++ {
			distinct[col.Ordinal(i)] = struct{}{}
		}
		total *= int64(len(distinct))
	}
	return total, nil
}
