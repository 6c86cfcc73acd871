package engine

import "context"

// This file is the engine's one scan driver. Every exact query —
// Execute and ExecutePartial — is the same operation: fold rows [0, n)
// through the block kernels (kernels.go) into one Partial (scalar) or
// one groupSink (GROUP BY), inline on the caller's goroutine. One
// accumulator folds every row in row order, so answers do not depend
// on how the table is laid out in blocks. Parallelism lives above the
// table, at the shard level (internal/shard).

// scan folds the query's selected rows into one accumulator: the
// returned Partial for a scalar query, the returned sink (non-nil) for
// a GROUP BY. The executor polls ctx once per zone block, so a canceled
// (or expired) ctx unwinds the scan within about one block and returns
// ctx's error. An uncancelable context costs nothing.
func (t *Table) scan(ctx context.Context, q Query) (Partial, *groupSink, error) {
	e, err := t.newBlockExec(q.Ranges)
	if err != nil {
		return Partial{}, nil, err
	}
	release := e.watch(ctx)
	defer release()
	var col *Column // the measure column; nil for COUNT
	var g *groupSink
	if len(q.GroupBy) > 0 {
		if g, err = newGroupSink(t, q); err != nil {
			return Partial{}, nil, err
		}
		col = g.aggCol
	} else if q.Func != Count {
		if col, err = t.Column(q.Col); err != nil {
			return Partial{}, nil, err
		}
	}
	var st Partial
	if !e.empty { // else no row can match: fold nothing, read no block
		st, err = e.fold(col, familyOf(q.Func), g, 0, t.NumRows())
	}
	if err == nil {
		err = ctx.Err()
	}
	return st, g, err
}

// fold runs rows [lo, hi), lo zone-block-aligned: into sink for a
// GROUP BY, otherwise into a fresh scalar accumulator.
func (e *blockExec) fold(col *Column, fam aggFamily, sink *groupSink, lo, hi int) (Partial, error) {
	if sink != nil {
		return Partial{}, e.run(lo, hi, sink.addRange, sink.addWords)
	}
	return scalarOver(e, col, fam, lo, hi)
}
