// Package shard implements in-process sharded scatter-gather execution:
// one logical table partitioned by range or hash into N shards, each
// owning its own engine columns (and therefore zone maps), its own
// sample and its own BP-cube slice. A coordinator plans once against
// the ordinary Plan IR, derives per-shard sub-work (range predicates
// pruned against shard bounds so non-overlapping shards are skipped
// entirely), fans out over a bounded worker pool, and merges partials:
// exact aggregates combine algebraically (engine.Partial), approximate
// answers combine via per-stratum variance composition — a shard is a
// stratum, so per-shard uniform estimates compose exactly like the
// stratified-sample math in internal/aqp — and bootstrap replicates
// run per-shard under independent seeded streams before the CI merge.
package shard

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"aqppp/internal/engine"
	"aqppp/internal/stats"
)

// Strategy selects how rows are assigned to shards.
type Strategy uint8

const (
	// ByRange partitions on the layout column's sort order: shard h
	// holds the h-th quantile span of rows ordered by the column, so a
	// range predicate on that column overlaps few shards and the rest
	// are pruned without touching row data. This also re-clusters data
	// that is shuffled in row order — the straddle-heavy workloads zone
	// maps cannot help with.
	ByRange Strategy = iota
	// ByHash spreads rows by a hash of the layout column's ordinal,
	// balancing skewed inserts at the cost of no range pruning.
	ByHash
)

// String implements fmt.Stringer.
func (s Strategy) String() string {
	switch s {
	case ByRange:
		return "range"
	case ByHash:
		return "hash"
	default:
		return fmt.Sprintf("Strategy(%d)", uint8(s))
	}
}

// Layout describes a partitioning: the strategy, the clustering column
// it keys on, and the shard count.
type Layout struct {
	Strategy Strategy
	Column   string
	N        int
}

// Signature renders the layout canonically as strategy:column:count,
// the form /statusz and fleet handshake errors name it by.
func (l Layout) Signature() string {
	return fmt.Sprintf("%s:%s:%d", l.Strategy, l.Column, l.N)
}

// Shard is one horizontal partition: a full-schema engine table holding
// its rows (in source row order), plus the layout column's observed
// ordinal bounds over its non-NaN rows, for pruning. Lo/Hi are
// meaningful only when Rows > 0, and NaN when every row is NaN.
type Shard struct {
	Index  int
	Table  *engine.Table
	Rows   int
	Lo, Hi float64
}

// Sharded is a partitioned table: the coordinator-side handle that
// executes queries scatter-gather across its shards.
type Sharded struct {
	// Name is the logical (source) table name.
	Name   string
	Layout Layout
	Shards []*Shard

	// scans[h] times every sub-plan run against shard h.
	scans  []stats.LatencyHistogram
	pruned atomic.Uint64
}

// seedStride separates per-shard random streams: shard h's seed is the
// caller's seed plus (h+1)·seedStride (the 64-bit golden ratio, so
// nearby seeds land in well-separated stream states).
const seedStride = 0x9e3779b97f4a7c15

// Partition splits tbl into layout.N shards. Range layouts order rows
// by the layout column (ties broken by row index, NaN rows last, like
// the engine's sorted views) and cut the order into N near-equal spans;
// hash layouts assign each row by a mixed hash of the column's ordinal.
// Within every shard, rows keep their source order, so per-shard scans
// fold in the same order the unsharded scan would have folded that
// subset.
func Partition(tbl *engine.Table, layout Layout) (*Sharded, error) {
	owner, counts, err := assign(tbl, layout)
	if err != nil {
		return nil, err
	}
	spans := make([][]int, layout.N)
	for h := range spans {
		spans[h] = make([]int, 0, counts[h])
	}
	for row, h := range owner {
		spans[h] = append(spans[h], row)
	}
	s := &Sharded{Name: tbl.Name, Layout: layout, scans: make([]stats.LatencyHistogram, layout.N)}
	for h, span := range spans {
		s.Shards = append(s.Shards, gather(tbl, layout.Column, h, span))
	}
	return s, nil
}

// PartitionOne returns shard index of Partition(tbl, layout), gathering
// only that shard's rows.
func PartitionOne(tbl *engine.Table, layout Layout, index int) (*Shard, error) {
	if index < 0 || index >= layout.N {
		return nil, fmt.Errorf("shard: shard index %d outside layout of %d", index, layout.N)
	}
	owner, counts, err := assign(tbl, layout)
	if err != nil {
		return nil, err
	}
	span := make([]int, 0, counts[index])
	for row, h := range owner {
		if h == index {
			span = append(span, row)
		}
	}
	return gather(tbl, layout.Column, index, span), nil
}

// assign returns each row's shard under layout and each shard's row
// count. A range layout gives the row at rank r in the sorted order
// shard h when h·n/N <= r < (h+1)·n/N.
func assign(tbl *engine.Table, layout Layout) (owner, counts []int, err error) {
	if layout.N < 1 {
		return nil, nil, fmt.Errorf("shard: layout needs N >= 1 shards, got %d", layout.N)
	}
	col, err := tbl.Column(layout.Column)
	if err != nil {
		return nil, nil, err
	}
	n := tbl.NumRows()
	owner = make([]int, n)
	counts = make([]int, layout.N)
	switch layout.Strategy {
	case ByRange:
		idx, err := tbl.SortedIndexByOrdinal(layout.Column)
		if err != nil {
			return nil, nil, err
		}
		for h := range counts {
			lo, hi := h*n/layout.N, (h+1)*n/layout.N
			for _, row := range idx[lo:hi] {
				owner[row] = h
			}
			counts[h] = hi - lo
		}
	case ByHash:
		for row := range owner {
			h := int(mix64(math.Float64bits(col.Ordinal(row))) % uint64(layout.N))
			owner[row] = h
			counts[h]++
		}
	default:
		return nil, nil, fmt.Errorf("shard: unknown strategy %v", layout.Strategy)
	}
	return owner, counts, nil
}

// gather builds shard h from the source rows in span. NaN matches no
// range, so NaN rows stay out of the bounds; a shard of NaN rows only
// keeps NaN bounds, which prune nothing.
func gather(tbl *engine.Table, column string, h int, span []int) *Shard {
	st := tbl.Gather(fmt.Sprintf("%s#%d", tbl.Name, h), span)
	sh := &Shard{Index: h, Table: st, Rows: len(span)}
	if len(span) > 0 {
		c := st.MustColumn(column)
		lo, hi := math.NaN(), math.NaN()
		for i := range span {
			switch v := c.Ordinal(i); {
			case math.IsNaN(v):
			case math.IsNaN(lo):
				lo, hi = v, v
			case v < lo:
				lo = v
			case v > hi:
				hi = v
			}
		}
		sh.Lo, sh.Hi = lo, hi
	}
	return sh
}

// mix64 is SplitMix64's finalizer: a cheap, well-distributed 64-bit
// mixer for hash placement.
func mix64(x uint64) uint64 {
	x += seedStride
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// recordScan notes one sub-plan execution against shard h.
func (s *Sharded) recordScan(h int, d time.Duration) { s.scans[h].Observe(d) }

// ShardInfo is one shard's observable state. Latency is the shard's
// scan-latency histogram (Scans is its count); /metrics renders it.
type ShardInfo struct {
	Index   int                   `json:"index"`
	Rows    int                   `json:"rows"`
	Lo      float64               `json:"lo"`
	Hi      float64               `json:"hi"`
	Scans   uint64                `json:"scans"`
	Latency stats.LatencySnapshot `json:"-"`
}

// Snapshot is a point-in-time view of a sharded table's layout and
// per-shard scan counters, for /statusz and /metrics.
type Snapshot struct {
	Table    string      `json:"table"`
	Strategy string      `json:"strategy"`
	Column   string      `json:"column"`
	Shards   []ShardInfo `json:"shards"`
	Pruned   uint64      `json:"pruned"`
}

// Snapshot captures the current layout and counters.
func (s *Sharded) Snapshot() Snapshot {
	snap := Snapshot{
		Table:    s.Name,
		Strategy: s.Layout.Strategy.String(),
		Column:   s.Layout.Column,
		Pruned:   s.pruned.Load(),
	}
	for i, sh := range s.Shards {
		lat := s.scans[i].Snapshot()
		snap.Shards = append(snap.Shards, ShardInfo{
			Index: sh.Index, Rows: sh.Rows, Lo: sh.Lo, Hi: sh.Hi,
			Scans: uint64(lat.Count), Latency: lat,
		})
	}
	return snap
}

// PrunedCount reports how many shard scans were skipped by bound
// pruning since construction.
func (s *Sharded) PrunedCount() uint64 { return s.pruned.Load() }

// NumRows returns the total row count across shards.
func (s *Sharded) NumRows() int {
	n := 0
	for _, sh := range s.Shards {
		n += sh.Rows
	}
	return n
}

// forEach runs fn(k) for k in [0, n) over a bounded worker pool.
// Workers pull indices from a shared counter, so a slow shard does not
// serialize the rest; a canceled ctx stops workers from *starting* new
// indices (work in flight unwinds through the engine's own per-block
// cancellation checks).
func forEach(ctx context.Context, workers, n int, fn func(k int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for k := 0; k < n; k++ {
			if ctx.Err() != nil {
				return
			}
			fn(k)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= n || ctx.Err() != nil {
					return
				}
				fn(k)
			}
		}()
	}
	wg.Wait()
}
