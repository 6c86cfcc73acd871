package engine

import (
	"context"
	"runtime"
	"sync"
)

// This file is the engine's one scan driver. Every exact query —
// Execute, ExecutePartial, ExecuteParallel — is the same operation:
// split [0, n) into zone-block-aligned chunks, fold each chunk through
// the block kernels (kernels.go) into one Partial (scalar) or one
// groupSink (GROUP BY), and merge the chunks in row order. The serial
// scan is the one-chunk case: it runs inline on the caller's goroutine,
// with no goroutine, no worker sink and no merge, so its answers are
// the single-accumulator row-order fold bit for bit.

// ExecuteParallel runs a query with the given worker count (<= 0 selects
// GOMAXPROCS), splitting the table into zone-block-aligned row chunks
// that run the same block-at-a-time kernels as Execute and are merged
// deterministically. Scalar results are bit-identical to Execute for
// COUNT/MIN/MAX, and agree to floating-point reassociation for
// SUM/AVG/VAR (each worker folds its chunk with one accumulator; the
// merge re-associates across chunk boundaries). Group-by queries are
// parallelized too: each worker fills a private group table and tables
// are merged in worker (= row) order, so group keys, their first-seen
// order and their row counts match the serial path exactly. With one
// worker, or a table of at most one zone block, it is Execute.
//
// Every worker polls a shared flag once per zone block, so a canceled
// (or expired) ctx unwinds the whole scan within about one block chunk
// and returns ctx's error. An uncancelable context costs nothing.
func (t *Table) ExecuteParallel(ctx context.Context, q Query, workers int) (Result, error) {
	st, g, err := t.scan(ctx, q, workers)
	if err != nil {
		return Result{}, err
	}
	if g != nil {
		rows, err := g.rows()
		if err != nil {
			return Result{}, err
		}
		return Result{Groups: rows}, nil
	}
	v, err := st.Finish(q.Func)
	if err != nil {
		return Result{}, err
	}
	return Result{Value: v}, nil
}

// scan folds the query's selected rows into one accumulator: the
// returned Partial for a scalar query, the returned sink (non-nil) for
// a GROUP BY. workers <= 0 selects GOMAXPROCS; the count is clamped to
// the table's zone blocks, because chunks are block-aligned so that
// workers classify and skip blocks exactly like a serial pass.
func (t *Table) scan(ctx context.Context, q Query, workers int) (Partial, *groupSink, error) {
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
	fam := familyOf(q.Func)
	n := t.NumRows()
	nblocks := (n + zoneBlockSize - 1) / zoneBlockSize
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > nblocks {
		workers = nblocks
	}
	var st Partial
	switch {
	case e.empty: // no row can match: fold nothing, read no block
	case workers <= 1:
		st, err = e.fold(col, fam, g, 0, n)
	default:
		st, err = e.foldChunks(col, fam, g, chunkBounds(nblocks, workers, n))
	}
	if err == nil {
		err = ctx.Err()
	}
	return st, g, err
}

// fold runs one chunk, rows [lo, hi) with lo zone-block-aligned: into
// sink for a GROUP BY, otherwise into a fresh scalar accumulator.
func (e *blockExec) fold(col *Column, fam aggFamily, sink *groupSink, lo, hi int) (Partial, error) {
	if sink != nil {
		return Partial{}, e.run(lo, hi, sink.addRange, sink.addWords)
	}
	return scalarOver(e, col, fam, lo, hi)
}

// foldChunks is the multi-chunk scan: one goroutine per chunk, each
// folding into its own accumulator (a pooled clone of g for a GROUP
// BY), merged in chunk (= row) order into the returned Partial or into
// g. That order concatenates the chunks' first-seen group orders back
// into the serial one. A failed chunk merges nothing, but the worker
// tables are recycled either way.
func (e *blockExec) foldChunks(col *Column, fam aggFamily, g *groupSink, bounds [][2]int) (Partial, error) {
	// Workers only ever read the rank caches: warm the measure column's
	// here (newBlockExec and newGroupSink warmed the others) so the
	// lazy build cannot serialize them on its mutex.
	if col != nil {
		col.warmOrdinals()
	}
	states := make([]Partial, len(bounds))
	sinks := make([]*groupSink, len(bounds))
	errs := make([]error, len(bounds))
	var wg sync.WaitGroup
	for w, bd := range bounds {
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			if g != nil {
				sinks[w] = g.cloneEmpty()
			}
			// fold accumulates locally and the result is published
			// once, so adjacent states entries are not written per row
			// from different cores (no false sharing).
			states[w], errs[w] = e.fold(col, fam, sinks[w], lo, hi)
		}(w, bd[0], bd[1])
	}
	wg.Wait()
	var err error
	for _, werr := range errs {
		if werr != nil {
			err = werr
			break
		}
	}
	var total Partial
	for w := range bounds {
		if err == nil && g != nil {
			g.mergeFrom(sinks[w])
		} else if err == nil {
			total.Merge(states[w])
		}
		if sinks[w] != nil {
			sinks[w].release()
		}
	}
	return total, err
}

// chunkBounds splits nblocks zone blocks across workers as evenly as
// block granularity allows: the first nblocks%workers workers take one
// extra block, so no worker's chunk exceeds another's by more than one
// block. (The previous ceil-divide scheme gave every worker
// ceil(nblocks/workers) blocks, which could leave the last worker a
// fraction of the others' work — a visible straggler imbalance on
// shard-sized tables.) Bounds stay zone-block-aligned as run requires;
// the final bound is clamped to n rows.
func chunkBounds(nblocks, workers, n int) [][2]int {
	q, rem := nblocks/workers, nblocks%workers
	bounds := make([][2]int, 0, workers)
	lo := 0
	for w := 0; w < workers; w++ {
		b := q
		if w < rem {
			b++
		}
		if b == 0 {
			continue
		}
		hi := lo + b*zoneBlockSize
		if hi > n {
			hi = n
		}
		if lo < hi {
			bounds = append(bounds, [2]int{lo, hi})
		}
		lo = hi
	}
	return bounds
}
