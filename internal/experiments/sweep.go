package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"aqppp/internal/core"
	"aqppp/internal/cube"
	"aqppp/internal/dataset"
	"aqppp/internal/engine"
	"aqppp/internal/sample"
	"aqppp/internal/workload"
)

// tpcdDimOrder is the paper's ten lineitem condition attributes, in the
// order the nested templates of §7.3 add them.
var tpcdDimOrder = []string{
	"l_orderkey", "l_partkey", "l_suppkey", "l_linenumber", "l_quantity",
	"l_discount", "l_tax", "l_shipdate", "l_commitdate", "l_receiptdate",
}

// sweep is a figure that compares AQP with AQP++ on one sample along an
// x-axis: the number d of nested template dimensions, or the BP-Cube
// budget k. Each point generates its queries, builds a processor over
// the sample and measures both systems on the workload.
type sweep struct {
	// title formats the header line from the table's rows, k, the sample
	// rate in percent and the workload size, by argument index.
	title string
	table func(Scale) *engine.Table
	agg   string
	// dims is the nested template order of a dimension sweep, or the
	// fixed template of a k sweep.
	dims []string
	// biased draws a measure-biased sample on agg instead of a uniform one.
	biased bool
	// ks is the k axis; nil sweeps d = 1..len(dims) over dims[:d].
	ks func(Scale) []int
	// cubeDims > 0 builds one cube over dims[:cubeDims] for every point.
	cubeDims int
	// Seed offsets from Scale.Seed. A dimension sweep adds d to the seed
	// of whatever depends on d: the queries, and each point's cube.
	sampleSeed, querySeed, buildSeed uint64
	// outliers keeps only the outlier-covering queries (median + 3·SD,
	// §7.4) of a workload drawn twice as large.
	outliers bool
	// x labels the axis column and xFmt prints a point in it.
	x, xFmt string
	// prep adds the preprocessing and response-time columns; dev the
	// realized deviations.
	prep, dev bool
}

// sweeps holds the figures one runner reproduces, keyed by experiment
// name.
var sweeps = map[string]sweep{
	// Figure 7(a–c): preprocessing, response time and error as the
	// lineitem template grows from 1 to 10 dimensions.
	"figure7": {
		title: "Figure 7: varying #dimensions (TPCD-Skew %[1]d rows, k=%[2]d, %.3[3]g%% sample)",
		table: tpcd, agg: "l_extendedprice", dims: tpcdDimOrder,
		sampleSeed: 2, querySeed: 10, buildSeed: 20,
		x: "d", xFmt: "%4d", prep: true, dev: true,
	},
	// Figure 9: the condition attributes change across Q1..Q6 while only
	// Q3 has a BP-Cube (§7.3). Q1 and Q2 leave cube dimensions
	// unrestricted (the rewrite to the full domain); Q4..Q6 carry
	// conditions the pre cannot restrict (the k1×k2×1 view).
	"figure9": {
		title: "Figure 9: changing condition attributes; only Q3 has a BP-Cube (TPCD-Skew %[1]d rows, k=%[2]d)",
		table: tpcd, agg: "l_extendedprice", dims: tpcdDimOrder[:6], cubeDims: 3,
		sampleSeed: 2, querySeed: 30, buildSeed: 3,
		x: "Q_i", xFmt: "Q%-3d",
	},
	// Figure 10(a): a measure-biased sample over outlier-covering queries;
	// k/20 … k/2 mirrors the paper's 1000…10000 against k = 50000.
	"figure10a": {
		title: "Figure 10(a): measure-biased sampling, %[4]d outlier-covering queries (TPCD-Skew %[1]d rows)",
		table: tpcd, agg: "l_extendedprice", dims: []string{"l_orderkey", "l_suppkey"}, biased: true,
		ks:         func(sc Scale) []int { return budgets(4, sc.K/20, sc.K/10, sc.K/5, sc.K/2) },
		sampleSeed: 42, querySeed: 41, buildSeed: 43, outliers: true,
		x: "k", xFmt: "%8d",
	},
	// Figure 11(a): BigBench UserVisits, a geometric k sweep up to 2k
	// mirroring the paper's 10k…100k around k = 50000.
	"figure11a": {
		title: "Figure 11(a): BigBench (%[1]d rows), median error vs k",
		table: func(sc Scale) *engine.Table {
			return dataset.BigBenchUserVisits(dataset.BigBenchConfig{Rows: sc.BigBenchRows, Seed: sc.Seed})
		},
		agg: "adRevenue", dims: []string{"visitDate", "duration", "sourceIP"},
		ks:         func(sc Scale) []int { return budgets(8, sc.K/4, sc.K/2, sc.K, sc.K*2) },
		sampleSeed: 62, querySeed: 61, buildSeed: 63,
		x: "k", xFmt: "%8d",
	},
	// Figure 11(b): TLCTrip, SUM(Distance) over 1 to 10 dimensions: the
	// paper's ten condition attributes, nested.
	"figure11b": {
		title: "Figure 11(b): TLCTrip (%[1]d rows, k=%[2]d), median error vs #dimensions",
		table: func(sc Scale) *engine.Table {
			return dataset.TLCTrip(dataset.TLCTripConfig{Rows: sc.TLCRows, Seed: sc.Seed})
		},
		agg: "Distance", dims: []string{
			"Pickup_Date", "Pickup_Time", "vendor_name", "Fare_Amt", "Rate_Code",
			"Passenger_Count", "Dropoff_Date", "Dropoff_Time", "surcharge", "Tip_Amt",
		},
		sampleSeed: 71, querySeed: 80, buildSeed: 90,
		x: "d", xFmt: "%4d", dev: true,
	},
}

// budgets returns the cell budgets ks, raising the i-th to floor+i when
// it falls below floor.
func budgets(floor int, ks ...int) []int {
	for i := range ks {
		if ks[i] < floor {
			ks[i] = floor + i
		}
	}
	return ks
}

// sweepPoint is one x value's measurements.
type sweepPoint struct {
	// x is the number of dimensions d, the template index i of Q_i, or
	// the cell budget k.
	x int
	// prepAQP / prepAQPPP are Figure 7(a): sample creation vs sample +
	// profiles + hill climbing + cube build.
	prepAQP, prepAQPPP time.Duration
	// aqp and aqppp answer the same workload on the same sample: plain
	// AQP (pre = φ) and AQP++.
	aqp, aqppp measured
}

// sweepReport is one sweep figure's series.
type sweepReport struct {
	title  string
	points []sweepPoint
	sw     sweep
}

// runSweep measures every point of sw at o's scale. o.MaxDims caps a
// dimension sweep that builds a cube per point.
func runSweep(ctx context.Context, sw sweep, o Options) (*sweepReport, error) {
	sc := o.Scale
	tbl := sw.table(sc)
	t0 := time.Now()
	var s *sample.Sample
	var err error
	if sw.biased {
		s, err = sample.NewMeasureBiased(tbl, sw.agg, sc.SampleRate, sc.Seed+sw.sampleSeed)
	} else {
		s, err = sample.NewUniform(tbl, sc.SampleRate, sc.Seed+sw.sampleSeed)
	}
	if err != nil {
		return nil, err
	}
	sampleTime := time.Since(t0)

	var xs []int
	if sw.ks != nil {
		xs = sw.ks(sc)
	} else {
		n := len(sw.dims)
		if sw.cubeDims == 0 && o.MaxDims > 0 {
			n = min(n, o.MaxDims)
		}
		for d := 1; d <= n; d++ {
			xs = append(xs, d)
		}
	}

	rep := &sweepReport{sw: sw}
	var queries []engine.Query
	var proc *core.Processor
	for _, x := range xs {
		// A k sweep keeps one workload and builds x cells; a dimension
		// sweep queries dims[:x] and, without a fixed cube, builds it.
		dims, k, seed := sw.dims, x, uint64(0)
		if sw.ks == nil {
			dims, k, seed = sw.dims[:x], sc.K, uint64(x)
		}
		if queries == nil || sw.ks == nil {
			n := sc.Queries
			if sw.outliers {
				n *= 2
			}
			queries, err = workload.Generate(tbl, workload.Config{
				Template: cube.Template{Agg: sw.agg, Dims: dims}, Count: n, Seed: sc.Seed + sw.querySeed + seed,
			})
			if err == nil && sw.outliers {
				if queries, err = workload.FilterOutlierCovering(tbl, queries, sw.agg); err == nil && len(queries) == 0 {
					err = fmt.Errorf("experiments: no outlier-covering queries generated")
				}
				queries = queries[:min(len(queries), sc.Queries)]
			}
			if err != nil {
				return nil, err
			}
		}
		var bst core.BuildStats
		if sw.cubeDims == 0 || proc == nil {
			if sw.cubeDims > 0 {
				dims, k, seed = sw.dims[:sw.cubeDims], sc.K, 0
			}
			proc, bst, err = core.Build(ctx, tbl, core.BuildConfig{
				Template:   cube.Template{Agg: sw.agg, Dims: dims},
				CellBudget: k, Seed: sc.Seed + sw.buildSeed + seed, PrebuiltSample: s,
			})
			if err != nil {
				return nil, err
			}
		}
		m, err := measure(ctx, tbl, queries, aqpOn(s), aqpppOn(proc))
		if err != nil {
			return nil, err
		}
		rep.points = append(rep.points, sweepPoint{
			x: x, prepAQP: sampleTime, prepAQPPP: sampleTime + bst.OptimizeTime + bst.CubeTime, aqp: m[0], aqppp: m[1],
		})
	}
	rep.title = fmt.Sprintf(sw.title, tbl.NumRows(), sc.K, 100*sc.SampleRate, len(queries))
	return rep, nil
}

// String renders the series: the axis column, the optional
// preprocessing and response-time columns, the median errors with their
// gain, and the optional realized deviations.
func (r *sweepReport) String() string {
	var sb strings.Builder
	sb.WriteString(r.title + "\n")
	fmt.Fprintf(&sb, "%*s", len(fmt.Sprintf(r.sw.xFmt, 0)), r.sw.x)
	sep, w := " ", 10
	if r.sw.prep {
		fmt.Fprintf(&sb, " | %12s %12s | %12s %12s", "prep AQP", "prep AQP++", "resp AQP", "resp AQP++")
		sep, w = " | ", 9
	}
	fmt.Fprintf(&sb, "%s%*s %*s %6s", sep, w, "mdn AQP", w, "mdn AQP++", "gain")
	if r.sw.dev {
		fmt.Fprintf(&sb, " | %9s %9s", "dev AQP", "dev AQP++")
	}
	sb.WriteString("\n")
	for _, p := range r.points {
		fmt.Fprintf(&sb, r.sw.xFmt, p.x)
		if r.sw.prep {
			fmt.Fprintf(&sb, " | %12v %12v | %12v %12v",
				p.prepAQP.Round(time.Millisecond), p.prepAQPPP.Round(time.Millisecond),
				p.aqp.resp.Round(10*time.Microsecond), p.aqppp.resp.Round(10*time.Microsecond))
		}
		fmt.Fprintf(&sb, "%s%*.2f%% %*.2f%% %s", sep, w-1, 100*p.aqp.mdnErr(), w-1, 100*p.aqppp.mdnErr(),
			gainCell(p.aqp.mdnErr(), p.aqppp.mdnErr()))
		if r.sw.dev {
			fmt.Fprintf(&sb, " | %8.2f%% %8.2f%%", 100*p.aqp.mdnDev(), 100*p.aqppp.mdnDev())
		}
		sb.WriteString("\n")
	}
	return sb.String()
}
