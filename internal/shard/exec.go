package shard

import (
	"context"
	"sort"

	"aqppp/internal/core"
	"aqppp/internal/engine"
)

// Execute runs an exact query scatter-gather across the shards with the
// given fan-out (<= 0 selects GOMAXPROCS). Each shard scan polls the
// context once per zone block (the engine's standard granularity), and
// the pool stops launching new shards once the context dies.
//
// Merge semantics: scalar partials fold in shard-index order (SUM/COUNT
// add, MIN/MAX fold, AVG/VAR finish from merged moments), so results
// are deterministic for a fixed layout and bit-identical to the
// unsharded scan whenever the additions are exact (COUNT/MIN/MAX
// always; SUM/AVG/VAR for integer-valued data). Group-by results are
// returned sorted by group key — rows are redistributed across shards,
// so the serial first-seen order is not reconstructible; sorting makes
// the sharded order deterministic and layout-independent.
func (s *Sharded) Execute(ctx context.Context, q engine.Query, workers int) (engine.Result, error) {
	// Validate the query against the schema up front, so a query that
	// prunes every shard still reports unknown columns exactly like the
	// unsharded path would.
	if err := s.validate(q); err != nil {
		return engine.Result{}, err
	}
	return s.group(nil, 0, workers).Exact(ctx, q)
}

// ExecuteContext is Execute.
//
// Deprecated: kept for benchmark/trace.go, which pins the name.
func (s *Sharded) ExecuteContext(ctx context.Context, q engine.Query, workers int) (engine.Result, error) {
	return s.Execute(ctx, q, workers)
}

// group builds the fan-out/merge engine over the in-process shards.
// procs, when non-nil, is index-aligned with Shards (a Prepared's
// per-shard processors); conf is the CI level for approximate merges.
func (s *Sharded) group(procs []*core.Processor, conf float64, workers int) *Group {
	execs := make([]Executor, len(s.Shards))
	for h := range s.Shards {
		var proc *core.Processor
		if procs != nil {
			proc = procs[h]
		}
		execs[h] = Local{Shard: s.Shards[h], Proc: proc}
	}
	return &Group{
		Layout:     s.Layout,
		Confidence: conf,
		Execs:      execs,
		Workers:    workers,
		Observe:    s.recordScan,
		OnPrune:    func(int) { s.pruned.Add(1) },
	}
}

// validate resolves every column the query names against the shard
// schema (all shards share the source schema, so shard 0 stands in).
func (s *Sharded) validate(q engine.Query) error {
	t := s.Shards[0].Table
	if q.Func != engine.Count {
		if _, err := t.Column(q.Col); err != nil {
			return err
		}
	}
	for _, r := range q.Ranges {
		if _, err := t.Column(r.Col); err != nil {
			return err
		}
	}
	for _, g := range q.GroupBy {
		if _, err := t.Column(g); err != nil {
			return err
		}
	}
	return nil
}

// mergeGroups folds per-shard group partials by key and finishes each
// merged accumulator, emitting rows sorted by key.
func mergeGroups(partials []engine.PartialResult, f engine.AggFunc) (engine.Result, error) {
	acc := make(map[string]*engine.Partial)
	keys := make([]string, 0, 16)
	for k := range partials {
		for _, gp := range partials[k].Groups {
			p, ok := acc[gp.Key]
			if !ok {
				p = &engine.Partial{}
				acc[gp.Key] = p
				keys = append(keys, gp.Key)
			}
			p.Merge(gp.Partial)
		}
	}
	sort.Strings(keys)
	rows := make([]engine.GroupRow, 0, len(keys))
	for _, key := range keys {
		p := acc[key]
		v, err := p.Finish(f)
		if err != nil {
			return engine.Result{}, err
		}
		rows = append(rows, engine.GroupRow{Key: key, Value: v, Rows: int(p.N)})
	}
	return engine.Result{Groups: rows}, nil
}
