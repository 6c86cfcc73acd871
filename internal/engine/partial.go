package engine

import (
	"context"
	"fmt"
)

// This file holds the engine's one aggregate accumulator and the
// mergeable form of a scan for scatter-gather execution
// (internal/shard). A coordinator runs the same scan driver as Execute
// on each horizontal partition, ships back one Partial (or one per
// group), and folds them algebraically: SUM/COUNT add, MIN/MAX fold,
// AVG and VAR finish from the merged (n, sum, sum2) moments. Because a
// Partial is the very accumulator the kernels fold into, a merge across
// partitions that preserve row order reproduces the unsharded answer
// bit-for-bit whenever the additions themselves are exact
// (integer-valued data), and to reassociation otherwise.

// Partial is one aggregate accumulator: the block kernels fold rows
// into it, shards Merge it, Finish reads the answer off it,
// and internal/dist ships its fields on the wire. The zero value is
// the identity for Merge: N == 0 means "no rows", and Min/Max are only
// meaningful when N > 0. A scalar kernel maintains only its aggregate
// family's fields (kernels.go, aggFamily).
type Partial struct {
	N         int64
	Sum, Sum2 float64
	Min, Max  float64
}

// add folds one row value into every field (the GROUP BY sinks, which
// do not specialize by family).
func (p *Partial) add(x float64) {
	p.observe(x)
	p.Sum += x
	p.Sum2 += x * x
}

// observe folds one row value into N, Min and Max only (the MIN/MAX
// kernels). MIN and MAX skip NaN rows: a NaN extreme is replaced by the
// next row, and a NaN row never replaces a number, so they are NaN
// only when every row is, whatever the row order.
func (p *Partial) observe(x float64) {
	if p.N == 0 || x < p.Min || p.Min != p.Min {
		p.Min = x
	}
	if p.N == 0 || x > p.Max || p.Max != p.Max {
		p.Max = x
	}
	p.N++
}

// Merge folds another partial into p. Merging in partition (= row)
// order reproduces the serial fold's associativity pattern.
func (p *Partial) Merge(o Partial) {
	if o.N == 0 {
		return
	}
	if p.N == 0 {
		*p = o
		return
	}
	p.N += o.N
	p.Sum += o.Sum
	p.Sum2 += o.Sum2
	if o.Min < p.Min || p.Min != p.Min {
		p.Min = o.Min
	}
	if o.Max > p.Max || p.Max != p.Max {
		p.Max = o.Max
	}
}

// Finish produces the final aggregate value: SUM/COUNT/AVG/VAR of no
// rows are 0, and so are MIN/MAX of no rows.
func (p Partial) Finish(f AggFunc) (float64, error) {
	switch f {
	case Sum:
		return p.Sum, nil
	case Count:
		return float64(p.N), nil
	case Avg:
		if p.N == 0 {
			return 0, nil
		}
		return p.Sum / float64(p.N), nil
	case Var:
		if p.N == 0 {
			return 0, nil
		}
		m := p.Sum / float64(p.N)
		return p.Sum2/float64(p.N) - m*m, nil
	case Min:
		return p.Min, nil
	case Max:
		return p.Max, nil
	default:
		return 0, fmt.Errorf("engine: unsupported aggregate %v", f)
	}
}

// GroupPartial is one group's key and partial accumulator.
type GroupPartial struct {
	Key string
	Partial
}

// PartialResult carries either a scalar partial or one partial per
// group (first-seen order), mirroring Result.
type PartialResult struct {
	Scalar Partial
	Groups []GroupPartial
}

// ExecutePartial runs the query over the full table but stops short of
// finishing the aggregate, returning the raw mergeable moments instead.
// Cancellation is Execute's.
func (t *Table) ExecutePartial(ctx context.Context, q Query) (PartialResult, error) {
	st, g, err := t.scan(ctx, q)
	if err != nil {
		return PartialResult{}, err
	}
	if g != nil {
		return PartialResult{Groups: g.partials()}, nil
	}
	return PartialResult{Scalar: st}, nil
}

// ExecutePartialContext is ExecutePartial.
//
// Deprecated: kept for benchmark/trace.go, which pins the name.
func (t *Table) ExecutePartialContext(ctx context.Context, q Query) (PartialResult, error) {
	return t.ExecutePartial(ctx, q)
}

// partials materializes per-group accumulators in first-seen order,
// rendering keys exactly as rows() would.
func (g *groupSink) partials() []GroupPartial {
	var out []GroupPartial
	switch g.mode {
	case gmMap:
		out = make([]GroupPartial, 0, len(g.morder))
		for _, key := range g.morder {
			out = append(out, GroupPartial{Key: key, Partial: g.m[key].st})
		}
	default:
		out = make([]GroupPartial, 0, len(g.order))
		for _, gi := range g.order {
			out = append(out, GroupPartial{Key: g.slotKey(gi), Partial: g.slots[gi].st})
		}
	}
	return out
}
