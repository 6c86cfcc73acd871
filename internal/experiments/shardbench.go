package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"aqppp/internal/engine"
	"aqppp/internal/shard"
)

// ShardPoint is one shard count's measurement.
type ShardPoint struct {
	Shards int
	// NSOp is the per-query wall time in nanoseconds.
	NSOp float64
	// Pruned counts shard scans skipped by range-bound pruning across
	// the timed iterations.
	Pruned uint64
}

// ShardReport measures scatter-gather scaling on a straddle-heavy
// workload: a selective range predicate on a column uncorrelated with
// row order (zone maps cannot skip blocks, so the unsharded scan reads
// everything; a range layout on that column re-clusters the rows and
// prunes the non-overlapping shards outright).
type ShardReport struct {
	Scale  Scale
	Column string
	Points []ShardPoint
}

// String renders the scaling table; speedup is the first shard count's
// time divided by each one's.
func (r *ShardReport) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Sharded scatter-gather: SUM over a %s range (TPCD-Skew %d rows, range layout on %s)\n",
		r.Column, r.Scale.TPCDRows, r.Column)
	fmt.Fprintf(&sb, "%8s %14s %10s %8s\n", "shards", "ns/op", "pruned", "speedup")
	for _, p := range r.Points {
		fmt.Fprintf(&sb, "%8d %14.0f %10d %7.2fx\n", p.Shards, p.NSOp, p.Pruned, r.Points[0].NSOp/p.NSOp)
	}
	return sb.String()
}

// RunShard times one straddle-heavy exact query at each shard count,
// checking every sharded answer against the unsharded scan. The range
// spans ~2% of l_shipdate's domain, mirroring the selective-filter
// benchmarks in internal/engine.
func RunShard(ctx context.Context, sc Scale, counts []int) (*ShardReport, error) {
	tbl := tpcd(sc)
	q := engine.Query{
		Func: engine.Sum, Col: "l_extendedprice",
		Ranges: []engine.Range{{Col: "l_shipdate", Lo: 1200, Hi: 1250}},
	}
	oracle, err := tbl.Execute(ctx, q)
	if err != nil {
		return nil, err
	}
	report := &ShardReport{Scale: sc, Column: "l_shipdate"}
	for _, n := range counts {
		s, err := shard.Partition(tbl, shard.Layout{Strategy: shard.ByRange, Column: "l_shipdate", N: n})
		if err != nil {
			return nil, err
		}
		res, err := s.Execute(ctx, q, 0)
		if err != nil {
			return nil, err
		}
		if relDev(res.Value, oracle.Value) > 1e-9 {
			return nil, fmt.Errorf("shards=%d: merged %v differs from unsharded %v", n, res.Value, oracle.Value)
		}
		prunedBefore := s.PrunedCount()
		iters := 0
		start := time.Now()
		for time.Since(start) < 300*time.Millisecond || iters < 5 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if _, err := s.Execute(ctx, q, 0); err != nil {
				return nil, err
			}
			iters++
		}
		report.Points = append(report.Points, ShardPoint{
			Shards: n, NSOp: float64(time.Since(start).Nanoseconds()) / float64(iters),
			Pruned: s.PrunedCount() - prunedBefore,
		})
	}
	return report, nil
}
