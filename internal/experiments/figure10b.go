package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"aqppp/internal/core"
	"aqppp/internal/cube"
	"aqppp/internal/sample"
	"aqppp/internal/stats"
	"aqppp/internal/workload"
)

// Figure10bGroup is one group's median errors.
type Figure10bGroup struct {
	Key         string
	MdnErrAQP   float64
	MdnErrAQPPP float64
	// FullySampled marks strata the stratified sample covered entirely
	// (both systems answer such groups exactly — the paper's "<N,F>"
	// observation).
	FullySampled bool
}

// Figure10bReport reproduces Figure 10(b): per-group median errors of
// group-by queries on a stratified sample.
type Figure10bReport struct {
	Scale   Scale
	Queries int
	Groups  []Figure10bGroup
}

// String renders the per-group bars.
func (r *Figure10bReport) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 10(b): stratified sampling, %d group-by queries (TPCD-Skew %d rows, k=%d)\n",
		r.Queries, r.Scale.TPCDRows, r.Scale.K)
	fmt.Fprintf(&sb, "%-8s %10s %10s %6s %s\n", "group", "mdn AQP", "mdn AQP++", "gain", "")
	for _, g := range r.Groups {
		note := ""
		if g.FullySampled {
			note = "(fully sampled: exact)"
		}
		fmt.Fprintf(&sb, "%-8s %9.2f%% %9.2f%% %s %s\n",
			"<"+g.Key+">", 100*g.MdnErrAQP, 100*g.MdnErrAQPPP, gainCell(g.MdnErrAQP, g.MdnErrAQPPP), note)
	}
	return sb.String()
}

// RunFigure10b draws a stratified sample on (l_returnflag, l_linestatus),
// generates group-by range queries over (l_orderkey, l_suppkey), and
// compares per-group median errors. The BP-Cube treats the group-by
// attributes as extra cube dimensions (Appendix C).
func RunFigure10b(ctx context.Context, sc Scale) (*Figure10bReport, error) {
	tbl := tpcd(sc)
	groupBy := []string{"l_returnflag", "l_linestatus"}
	tmpl := cube.Template{Agg: "l_extendedprice", Dims: []string{"l_orderkey", "l_suppkey"}}
	queries, err := workload.Generate(tbl, workload.Config{
		Template: tmpl, Count: sc.Queries / 2, Seed: sc.Seed + 51,
		GroupBy: groupBy,
	})
	if err != nil {
		return nil, err
	}
	s, err := sample.NewStratified(tbl, groupBy, sc.SampleRate, 100, sc.Seed+52)
	if err != nil {
		return nil, err
	}
	// Cube dims: condition attributes plus the group-by attributes.
	cubeTmpl := cube.Template{Agg: tmpl.Agg, Dims: append(append([]string(nil), tmpl.Dims...), groupBy...)}
	proc, _, err := core.Build(ctx, tbl, core.BuildConfig{
		Template: cubeTmpl, CellBudget: sc.K, Seed: sc.Seed + 53,
		PrebuiltSample: s,
	})
	if err != nil {
		return nil, err
	}
	// Plain AQP is the same processor with no cube (pre = φ).
	plain := &core.Processor{Sample: s, Confidence: 0.95}
	perGroupAQP := map[string][]float64{}
	perGroupPP := map[string][]float64{}
	for _, q := range queries {
		truthRes, err := tbl.Execute(ctx, q)
		if err != nil {
			return nil, err
		}
		truth := map[string]float64{}
		for _, g := range truthRes.Groups {
			truth[g.Key] = g.Value
		}
		for _, sys := range []struct {
			p   *core.Processor
			out map[string][]float64
		}{{plain, perGroupAQP}, {proc, perGroupPP}} {
			groups, err := sys.p.AnswerGroups(ctx, q)
			if err != nil {
				return nil, err
			}
			for _, ga := range groups {
				if tv, ok := truth[ga.Key]; ok {
					sys.out[ga.Key] = append(sys.out[ga.Key], clampErr(ga.Answer.Estimate.RelativeError(tv)))
				}
			}
		}
	}
	fully := map[string]bool{}
	for _, st := range s.Strata {
		fully[st.Key] = st.SampleRows == st.SourceRows
	}
	report := &Figure10bReport{Scale: sc, Queries: len(queries)}
	keys := make([]string, 0, len(perGroupAQP))
	for k := range perGroupAQP {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		report.Groups = append(report.Groups, Figure10bGroup{
			Key:          strings.ReplaceAll(k, "|", ","),
			MdnErrAQP:    stats.Median(perGroupAQP[k]),
			MdnErrAQPPP:  stats.Median(perGroupPP[k]),
			FullySampled: fully[k],
		})
	}
	return report, nil
}
