package aqppp

import (
	"sort"

	"aqppp/internal/engine"
	"aqppp/internal/exec"
	"aqppp/internal/shard"
)

// ShardOptions configures RegisterSharded: how a table is partitioned
// for scatter-gather execution.
type ShardOptions struct {
	// Column is the clustering column rows are partitioned on.
	Column string
	// Shards is the partition count N (>= 1).
	Shards int
	// ByHash spreads rows by a hash of the column instead of range
	// clustering. Hash layouts balance skew but give up range pruning;
	// the default range layout re-clusters rows by the column's order,
	// so a range predicate on it skips non-overlapping shards entirely.
	ByHash bool
}

func (o ShardOptions) layout() shard.Layout {
	s := shard.ByRange
	if o.ByHash {
		s = shard.ByHash
	}
	return shard.Layout{Strategy: s, Column: o.Column, N: o.Shards}
}

// RegisterSharded registers a table partitioned into opts.Shards shards.
// Exact queries against it scatter-gather across the shards (merged
// algebraically, so SUM/COUNT/MIN/MAX and integer-valued AVG/VAR are
// bit-identical to the unsharded scan), and Prepare builds one sample
// and BP-cube slice per shard, merged per-stratum at query time. The
// partitioning itself runs before any lock is taken.
func (db *DB) RegisterSharded(tbl *engine.Table, opts ShardOptions) error {
	s, err := shard.Partition(tbl, opts.layout())
	if err != nil {
		return err
	}
	return db.register(registered{tbl: tbl, target: exec.Sharded{S: s}})
}

// Sharded reports a table's partitioned form, or nil if the table is
// not sharded (advanced use: direct scatter-gather execution).
func (db *DB) Sharded(name string) *shard.Sharded {
	_, t, _ := db.LookupTarget(name)
	st, _ := t.(exec.Sharded)
	return st.S
}

// ShardSnapshots captures the layout and per-shard scan counters of
// every sharded table, sorted by table name — the serving layer renders
// these into /statusz and /metrics.
func (db *DB) ShardSnapshots() []shard.Snapshot {
	db.mu.RLock()
	var sharded []*shard.Sharded
	for _, e := range db.tables {
		if st, ok := e.target.(exec.Sharded); ok {
			sharded = append(sharded, st.S)
		}
	}
	db.mu.RUnlock()
	sort.Slice(sharded, func(i, j int) bool { return sharded[i].Name < sharded[j].Name })
	snaps := make([]shard.Snapshot, len(sharded))
	for i, s := range sharded {
		snaps[i] = s.Snapshot()
	}
	return snaps
}

// newSharded wraps freshly built per-shard processors over tbl as a
// Prepared, aggregating their build cost.
func (db *DB) newSharded(tbl *engine.Table, t exec.Sharded) *Prepared {
	st := PreprocessingStats{SampleRows: t.Prep.SampleSize()}
	for h, bs := range t.Prep.BuildStats {
		if t.Prep.Procs[h] == nil {
			continue
		}
		st.SampleBytes += bs.SampleBytes
		st.CubeCells += t.Prep.Procs[h].Cube.NumCells()
		st.CubeBytes += bs.CubeBytes
		st.TotalSeconds += bs.TotalTime().Seconds()
	}
	return &Prepared{db: db, tbl: tbl, target: t, conf: t.Prep.Confidence, stats: st}
}
