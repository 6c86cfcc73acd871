package engine

import (
	"context"
	"fmt"
)

// AggFunc enumerates supported aggregation functions. MIN and MAX are
// exact-only (the paper notes AQP cannot estimate them; AggPre can).
type AggFunc uint8

const (
	// Sum aggregates SUM(col).
	Sum AggFunc = iota
	// Count aggregates COUNT(*) (the column is ignored).
	Count
	// Avg aggregates AVG(col).
	Avg
	// Var aggregates the population variance VAR(col).
	Var
	// Min aggregates MIN(col).
	Min
	// Max aggregates MAX(col).
	Max
)

// String implements fmt.Stringer.
func (f AggFunc) String() string {
	switch f {
	case Sum:
		return "SUM"
	case Count:
		return "COUNT"
	case Avg:
		return "AVG"
	case Var:
		return "VAR"
	case Min:
		return "MIN"
	case Max:
		return "MAX"
	default:
		return fmt.Sprintf("AggFunc(%d)", uint8(f))
	}
}

// Range is an inclusive range condition on a column's ordinal axis:
// Lo <= ord(col) <= Hi. Equality and one-sided conditions are expressed by
// collapsing or extending the endpoints (paper footnote 2).
type Range struct {
	Col    string
	Lo, Hi float64
}

// Query is an aggregation query: SELECT f(col) FROM t WHERE ranges...
// [GROUP BY groupBy...]. Ranges on the same column intersect.
type Query struct {
	Func    AggFunc
	Col     string
	Ranges  []Range
	GroupBy []string
}

// String renders the query in the paper's abbreviated SUM(x1:y1, ...) form.
func (q Query) String() string {
	s := fmt.Sprintf("%s(%s)[", q.Func, q.Col)
	for i, r := range q.Ranges {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%s:%g..%g", r.Col, r.Lo, r.Hi)
	}
	s += "]"
	if len(q.GroupBy) > 0 {
		s += " GROUP BY "
		for i, g := range q.GroupBy {
			if i > 0 {
				s += ","
			}
			s += g
		}
	}
	return s
}

// Filter evaluates the conjunction of ranges and returns the selection
// bitset. A query with no ranges selects every row. The first range is
// evaluated directly into the result; further ranges share one scratch
// bitset, so a k-range filter allocates two bitsets instead of k+1.
func (t *Table) Filter(ranges []Range) (*Bitset, error) {
	n := t.NumRows()
	sel := NewBitset(n)
	if len(ranges) == 0 {
		sel.SetAll()
		return sel, nil
	}
	c, err := t.Column(ranges[0].Col)
	if err != nil {
		return nil, err
	}
	if err := applyRangeZoned(c, ranges[0], sel); err != nil {
		return nil, err
	}
	var scratch *Bitset
	for _, r := range ranges[1:] {
		c, err := t.Column(r.Col)
		if err != nil {
			return nil, err
		}
		if scratch == nil {
			scratch = NewBitset(n)
		} else {
			scratch.ClearAll()
		}
		if err := applyRangeZoned(c, r, scratch); err != nil {
			return nil, err
		}
		sel.And(scratch)
	}
	return sel, nil
}

// Result is the output of an exact query: the scalar answer, or one row
// per group for group-by queries.
type Result struct {
	Value  float64
	Groups []GroupRow
}

// GroupRow is one group's key and aggregate value.
type GroupRow struct {
	Key   string
	Value float64
	Rows  int
}

// Execute runs the query exactly over the full table. This is the "ground
// truth" path (and the full-scan baseline the paper times DBX on). It
// runs the one scan driver (scan.go) over the block-at-a-time kernel
// layer (kernels.go): zone-map block classification feeds fused,
// type-specialized filter+aggregate kernels, so a single-range scan never
// materializes a full selection bitset.
//
// A canceled (or expired) ctx aborts the scan at the next zone block and
// returns ctx's error. An uncancelable context costs nothing on the
// block path.
func (t *Table) Execute(ctx context.Context, q Query) (Result, error) {
	st, g, err := t.scan(ctx, q)
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

// ExecuteContext is Execute.
//
// Deprecated: kept for benchmark/trace.go and benchmark/oracle.go,
// which pin the name.
func (t *Table) ExecuteContext(ctx context.Context, q Query) (Result, error) {
	return t.Execute(ctx, q)
}

// GroupKey renders the group-by key for row i, matching the keys produced
// by Execute on group-by queries.
func GroupKey(cols []*Column, row int) string { return groupKey(cols, row) }

func groupKey(cols []*Column, row int) string {
	key := ""
	for j, g := range cols {
		if j > 0 {
			key += "|"
		}
		key += g.StringAt(row)
	}
	return key
}
