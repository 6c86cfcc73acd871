package experiments

import (
	"context"
	"fmt"
	"strings"

	"aqppp/internal/precompute"
	"aqppp/internal/sample"
)

// Figure8Dim is one dimension's pair of convergence traces.
type Figure8Dim struct {
	Dim string
	// GlobalTrace / LocalTrace hold error_up(Q, P) per hill-climbing
	// iteration (index 0 = the initial equal partition).
	GlobalTrace, LocalTrace []float64
}

// Figure8Report reproduces Figure 8: Hill Climb (global) vs Hill Climb
// (local) on the price-correlated date attributes.
type Figure8Report struct {
	Scale Scale
	K     int
	Dims  []Figure8Dim
}

// String renders each dimension's traces.
func (r *Figure8Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 8: hill-climb adjustment, global vs local (TPCD-Skew %d rows, k1=k2=%d)\n",
		r.Scale.TPCDRows, r.K)
	for _, d := range r.Dims {
		fmt.Fprintf(&sb, "[%s]\n", d.Dim)
		fmt.Fprintf(&sb, "  global: %d iters, %s\n", len(d.GlobalTrace)-1, traceString(d.GlobalTrace))
		fmt.Fprintf(&sb, "  local : %d iters, %s\n", len(d.LocalTrace)-1, traceString(d.LocalTrace))
		gFinal := d.GlobalTrace[len(d.GlobalTrace)-1]
		lFinal := d.LocalTrace[len(d.LocalTrace)-1]
		fmt.Fprintf(&sb, "  final error_up: global %.4g vs local %.4g\n", gFinal, lFinal)
	}
	return sb.String()
}

func traceString(tr []float64) string {
	var sb strings.Builder
	for i, v := range tr {
		if i > 0 {
			sb.WriteString(" → ")
		}
		fmt.Fprintf(&sb, "%.3g", v)
		if i >= 11 && i < len(tr)-1 {
			fmt.Fprintf(&sb, " → … (%d more)", len(tr)-i-2)
			fmt.Fprintf(&sb, " → %.3g", tr[len(tr)-1])
			break
		}
	}
	return sb.String()
}

// RunFigure8 compares the two adjustment strategies on the template
// [SUM(l_extendedprice), l_shipdate, l_commitdate] — the attributes the
// generator correlates with price — with k1 = k2 = k per dimension
// (paper: 200, scaled by sc.K/10 here, min 25).
func RunFigure8(ctx context.Context, sc Scale) (*Figure8Report, error) {
	k := min(max(sc.K/10, 25), 200)
	tbl := tpcd(sc)
	s, err := sample.NewUniform(tbl, sc.SampleRate, sc.Seed+2)
	if err != nil {
		return nil, err
	}
	report := &Figure8Report{Scale: sc, K: k}
	for _, dim := range []string{"l_shipdate", "l_commitdate"} {
		v, err := precompute.NewView(s, "l_extendedprice", dim, 0.95)
		if err != nil {
			return nil, err
		}
		init, err := precompute.EqualPartition(v, k)
		if err != nil {
			return nil, err
		}
		var traces [2][]float64 // global, local
		for i, mode := range []precompute.AdjustMode{precompute.Global, precompute.Local} {
			climb, err := precompute.HillClimb(ctx, v, init, precompute.ClimbConfig{Mode: mode, MaxIterations: 100})
			if err != nil {
				return nil, err
			}
			traces[i] = climb.Trace
		}
		report.Dims = append(report.Dims, Figure8Dim{Dim: dim, GlobalTrace: traces[0], LocalTrace: traces[1]})
	}
	return report, nil
}
