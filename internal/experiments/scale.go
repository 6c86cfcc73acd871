// Package experiments regenerates every table and figure of the paper's
// evaluation (§7) on the synthetic datasets: Table 1, Figures 7(a-c), 8,
// 9, 10(a-b) and 11(a-b). All lists them in order; each run returns a
// report whose String method prints the same rows/series the paper
// reports. Figures 7, 9, 10(a), 11(a) and 11(b) are rows of one spec
// table (sweeps) measured by one runner; every scalar error comes from
// one measuring loop (measure).
//
// The paper runs 100-200 GB datasets on a commercial OLAP server; this
// harness defaults to laptop scale (see DESIGN.md substitution #2) and
// scales sample rates and cube budgets so that sample sizes and
// cells-per-query stay in the paper's regime. Absolute numbers differ;
// the comparisons' shape is what EXPERIMENTS.md tracks.
package experiments

import (
	"context"
	"fmt"
	"os"
	"strconv"

	"aqppp/internal/dataset"
	"aqppp/internal/engine"
)

// Options is one harness run: the scale plus the two settings that only
// some experiments read.
type Options struct {
	Scale
	// MaxDims caps the dimension sweeps that build a cube per point
	// (Figures 7 and 11(b)); 0 runs all ten.
	MaxDims int
	// Shards lists the shard counts of the shard experiment.
	Shards []int
}

// Experiment is one registered table or figure.
type Experiment struct {
	Name string
	Run  func(context.Context, Options) (fmt.Stringer, error)
}

// All lists every experiment in the order `aqppp-bench all` runs them.
var All = []Experiment{
	{"table1", scaled(RunTable1)},
	swept("figure7"),
	{"figure8", scaled(RunFigure8)},
	swept("figure9"),
	swept("figure10a"),
	{"figure10b", scaled(RunFigure10b)},
	swept("figure11a"),
	swept("figure11b"),
	{"ablations", scaled(RunAblations)},
	{"shard", func(ctx context.Context, o Options) (fmt.Stringer, error) { return RunShard(ctx, o.Scale, o.Shards) }},
}

// scaled registers a runner that reads only the scale.
func scaled[R fmt.Stringer](run func(context.Context, Scale) (R, error)) func(context.Context, Options) (fmt.Stringer, error) {
	return func(ctx context.Context, o Options) (fmt.Stringer, error) { return run(ctx, o.Scale) }
}

// swept registers the sweep figure of that name.
func swept(name string) Experiment {
	sw := sweeps[name]
	return Experiment{name, func(ctx context.Context, o Options) (fmt.Stringer, error) { return runSweep(ctx, sw, o) }}
}

// tpcd generates the scale's TPCD-Skew lineitem table.
func tpcd(sc Scale) *engine.Table {
	return dataset.TPCDSkew(dataset.TPCDConfig{Rows: sc.TPCDRows, Seed: sc.Seed})
}

// Scale bundles the dataset and workload sizes of a harness run.
type Scale struct {
	// TPCDRows, BigBenchRows, TLCRows size the three datasets (paper:
	// 600M / 752M / 1400M).
	TPCDRows, BigBenchRows, TLCRows int
	// Queries is the workload size per experiment (paper: 1000).
	Queries int
	// SampleRate is the default sampling rate (paper: 0.05%; scaled up
	// so the sample keeps >= ~1000 rows at laptop row counts).
	SampleRate float64
	// K is the default BP-Cube cell budget (paper: 50000).
	K int
	// Seed drives every random choice.
	Seed uint64
}

// Default returns the laptop-scale defaults used by `go test -bench` and
// the examples.
func Default() Scale {
	return Scale{
		TPCDRows:     150000,
		BigBenchRows: 120000,
		TLCRows:      150000,
		Queries:      100,
		SampleRate:   0.01,
		K:            2000,
		Seed:         42,
	}
}

// Small returns a fast scale for unit tests.
func Small() Scale {
	return Scale{
		TPCDRows:     20000,
		BigBenchRows: 15000,
		TLCRows:      20000,
		Queries:      12,
		SampleRate:   0.02,
		K:            200,
		Seed:         42,
	}
}

// FromEnv starts from Default and applies AQPPP_* environment overrides:
// AQPPP_TPCD_ROWS, AQPPP_BIGBENCH_ROWS, AQPPP_TLC_ROWS, AQPPP_QUERIES,
// AQPPP_SAMPLE_RATE, AQPPP_K, AQPPP_SEED.
func FromEnv() Scale {
	sc := Default()
	for name, dst := range map[string]*int{
		"AQPPP_TPCD_ROWS": &sc.TPCDRows, "AQPPP_BIGBENCH_ROWS": &sc.BigBenchRows, "AQPPP_TLC_ROWS": &sc.TLCRows,
		"AQPPP_QUERIES": &sc.Queries, "AQPPP_K": &sc.K,
	} {
		if n, err := strconv.Atoi(os.Getenv(name)); err == nil && n > 0 {
			*dst = n
		}
	}
	if f, err := strconv.ParseFloat(os.Getenv("AQPPP_SAMPLE_RATE"), 64); err == nil && f > 0 && f <= 1 {
		sc.SampleRate = f
	}
	if n, err := strconv.ParseUint(os.Getenv("AQPPP_SEED"), 10, 64); err == nil {
		sc.Seed = n
	}
	return sc
}
