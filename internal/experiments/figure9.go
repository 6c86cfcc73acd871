package experiments

import (
	"context"
	"fmt"
	"strings"

	"aqppp/internal/core"
	"aqppp/internal/cube"
	"aqppp/internal/dataset"
	"aqppp/internal/sample"
	"aqppp/internal/workload"
)

// figure9DimOrder is §7.3's six condition attributes for Q1..Q6.
var figure9DimOrder = []string{
	"l_orderkey", "l_partkey", "l_suppkey", "l_linenumber", "l_quantity", "l_discount",
}

// Figure9Point is one template's errors.
type Figure9Point struct {
	Template    int // i of Q_i
	MdnErrAQP   float64
	MdnErrAQPPP float64
}

// Figure9Report reproduces Figure 9: the set of condition attributes
// changes across queries (Q1..Q6) while only Q3 has a precomputed
// BP-Cube; AQP++ reuses it via query rewriting (§7.3).
type Figure9Report struct {
	Scale    Scale
	CubeDims int
	Points   []Figure9Point
}

// String renders the series.
func (r *Figure9Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 9: changing condition attributes; only Q%d has a BP-Cube (TPCD-Skew %d rows, k=%d)\n",
		r.CubeDims, r.Scale.TPCDRows, r.Scale.K)
	fmt.Fprintf(&sb, "%4s %10s %10s %6s\n", "Q_i", "mdn AQP", "mdn AQP++", "gain")
	for _, p := range r.Points {
		gain := 0.0
		if p.MdnErrAQPPP > 0 {
			gain = p.MdnErrAQP / p.MdnErrAQPPP
		}
		fmt.Fprintf(&sb, "Q%-3d %9.2f%% %9.2f%% %5.1fx\n",
			p.Template, 100*p.MdnErrAQP, 100*p.MdnErrAQPPP, gain)
	}
	return sb.String()
}

// RunFigure9 builds a BP-Cube only for Q3's template and answers
// workloads generated from Q1..Q6 with it. Queries from Q1 and Q2 leave
// some cube dimensions unrestricted (the rewrite to the full domain);
// queries from Q4..Q6 carry conditions on columns outside the cube, which
// the pre simply cannot restrict (the k1×k2×1 view of §7.3). maxDims <= 0
// runs all six templates.
func RunFigure9(ctx context.Context, sc Scale, maxDims int) (*Figure9Report, error) {
	if maxDims <= 0 || maxDims > len(figure9DimOrder) {
		maxDims = len(figure9DimOrder)
	}
	tbl := dataset.TPCDSkew(dataset.TPCDConfig{Rows: sc.TPCDRows, Seed: sc.Seed})
	s, err := sample.NewUniform(tbl, sc.SampleRate, sc.Seed+2)
	if err != nil {
		return nil, err
	}
	cubeTmpl := cube.Template{Agg: "l_extendedprice", Dims: figure9DimOrder[:3]}
	proc, _, err := core.Build(ctx, tbl, core.BuildConfig{
		Template: cubeTmpl, CellBudget: sc.K, Seed: sc.Seed + 3,
		PrebuiltSample: s,
	})
	if err != nil {
		return nil, err
	}
	report := &Figure9Report{Scale: sc, CubeDims: 3}
	for d := 1; d <= maxDims; d++ {
		qTmpl := cube.Template{Agg: "l_extendedprice", Dims: figure9DimOrder[:d]}
		queries, err := workload.Generate(tbl, workload.Config{
			Template: qTmpl, Count: sc.Queries, Seed: sc.Seed + uint64(30+d),
		})
		if err != nil {
			return nil, err
		}
		cmp, err := CompareOnWorkload(ctx, tbl, proc, queries)
		if err != nil {
			return nil, err
		}
		report.Points = append(report.Points, Figure9Point{
			Template:    d,
			MdnErrAQP:   cmp.MedianErrAQP,
			MdnErrAQPPP: cmp.MedianErrAQPPP,
		})
	}
	return report, nil
}
