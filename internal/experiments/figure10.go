package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"aqppp/internal/aqp"
	"aqppp/internal/core"
	"aqppp/internal/cube"
	"aqppp/internal/dataset"
	"aqppp/internal/sample"
	"aqppp/internal/stats"
	"aqppp/internal/workload"
)

// Figure10aPoint is one cube size's result on the measure-biased sample.
type Figure10aPoint struct {
	K           int
	MdnErrAQP   float64
	MdnErrAQPPP float64
}

// Figure10aReport reproduces Figure 10(a): AQP vs AQP++ on a
// measure-biased sample over outlier-covering queries, varying the
// BP-Cube size.
type Figure10aReport struct {
	Scale   Scale
	Queries int
	Points  []Figure10aPoint
}

// String renders the series.
func (r *Figure10aReport) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 10(a): measure-biased sampling, %d outlier-covering queries (TPCD-Skew %d rows)\n",
		r.Queries, r.Scale.TPCDRows)
	fmt.Fprintf(&sb, "%8s %10s %10s %6s\n", "k", "mdn AQP", "mdn AQP++", "gain")
	for _, p := range r.Points {
		gain := 0.0
		if p.MdnErrAQPPP > 0 {
			gain = p.MdnErrAQP / p.MdnErrAQPPP
		}
		fmt.Fprintf(&sb, "%8d %9.2f%% %9.2f%% %5.1fx\n", p.K, 100*p.MdnErrAQP, 100*p.MdnErrAQPPP, gain)
	}
	return sb.String()
}

// RunFigure10a draws a measure-biased sample on l_extendedprice, filters
// the workload to outlier-covering queries (median + 3·SD, §7.4), and
// sweeps the cube budget over ks (nil selects the paper-shaped sweep
// k/20 … k/2 relative to sc.K·10, mirroring 1000…10000 vs k=50000).
func RunFigure10a(ctx context.Context, sc Scale, ks []int) (*Figure10aReport, error) {
	if len(ks) == 0 {
		base := sc.K
		ks = []int{base / 20, base / 10, base / 5, base / 2}
		for i := range ks {
			if ks[i] < 4 {
				ks[i] = 4 + i
			}
		}
	}
	tbl := dataset.TPCDSkew(dataset.TPCDConfig{Rows: sc.TPCDRows, Seed: sc.Seed})
	tmpl := cube.Template{Agg: "l_extendedprice", Dims: []string{"l_orderkey", "l_suppkey"}}
	raw, err := workload.Generate(tbl, workload.Config{
		Template: tmpl, Count: sc.Queries * 2, Seed: sc.Seed + 41,
	})
	if err != nil {
		return nil, err
	}
	queries, err := workload.FilterOutlierCovering(tbl, raw, "l_extendedprice")
	if err != nil {
		return nil, err
	}
	if len(queries) > sc.Queries {
		queries = queries[:sc.Queries]
	}
	if len(queries) == 0 {
		return nil, fmt.Errorf("experiments: no outlier-covering queries generated")
	}
	s, err := sample.NewMeasureBiased(tbl, "l_extendedprice", sc.SampleRate, sc.Seed+42)
	if err != nil {
		return nil, err
	}
	report := &Figure10aReport{Scale: sc, Queries: len(queries)}
	for _, k := range ks {
		proc, _, err := core.Build(ctx, tbl, core.BuildConfig{
			Template: tmpl, CellBudget: k, Seed: sc.Seed + 43,
			PrebuiltSample: s,
		})
		if err != nil {
			return nil, err
		}
		cmp, err := CompareOnWorkload(ctx, tbl, proc, queries)
		if err != nil {
			return nil, err
		}
		report.Points = append(report.Points, Figure10aPoint{
			K: k, MdnErrAQP: cmp.MedianErrAQP, MdnErrAQPPP: cmp.MedianErrAQPPP,
		})
	}
	return report, nil
}

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
		gain := 0.0
		if g.MdnErrAQPPP > 0 {
			gain = g.MdnErrAQP / g.MdnErrAQPPP
		}
		note := ""
		if g.FullySampled {
			note = "(fully sampled: exact)"
		}
		fmt.Fprintf(&sb, "%-8s %9.2f%% %9.2f%% %5.1fx %s\n",
			"<"+g.Key+">", 100*g.MdnErrAQP, 100*g.MdnErrAQPPP, gain, note)
	}
	return sb.String()
}

// RunFigure10b draws a stratified sample on (l_returnflag, l_linestatus),
// generates group-by range queries over (l_orderkey, l_suppkey), and
// compares per-group median errors. The BP-Cube treats the group-by
// attributes as extra cube dimensions (Appendix C).
func RunFigure10b(ctx context.Context, sc Scale) (*Figure10bReport, error) {
	tbl := dataset.TPCDSkew(dataset.TPCDConfig{Rows: sc.TPCDRows, Seed: sc.Seed})
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
		aqpGroups, err := aqp.EstimateGroups(s, q, 0.95)
		if err != nil {
			return nil, err
		}
		for _, ge := range aqpGroups {
			if tv, ok := truth[ge.Key]; ok {
				perGroupAQP[ge.Key] = append(perGroupAQP[ge.Key], clampErr(ge.Est.RelativeError(tv)))
			}
		}
		ppGroups, err := proc.AnswerGroups(ctx, q)
		if err != nil {
			return nil, err
		}
		for _, ga := range ppGroups {
			if tv, ok := truth[ga.Key]; ok {
				perGroupPP[ga.Key] = append(perGroupPP[ga.Key], clampErr(ga.Answer.Estimate.RelativeError(tv)))
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
