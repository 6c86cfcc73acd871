package core

import (
	"context"
	"fmt"

	"aqppp/internal/cube"
	"aqppp/internal/engine"
	"aqppp/internal/sample"
	"aqppp/internal/stats"
)

// Progressive implements online aggregation in the AQP++ frame (the §8
// future direction, with the §2 online-aggregation lineage): the sample
// grows in steps while queries keep being answered against the same
// BP-Cube, so the confidence interval shrinks live at roughly 1/√n while
// the precomputed anchor stays fixed.
type Progressive struct {
	tbl  *engine.Table
	c    *cube.BPCube
	conf float64
	// perm is a fixed random permutation of the table's rows; the sample
	// is always its prefix, which makes every prefix an exact uniform
	// without-replacement sample.
	perm   []int
	taken  int
	sample *sample.Sample
}

// NewProgressive starts with an empty sample over tbl and an optional
// prebuilt cube (nil means plain progressive AQP).
func NewProgressive(tbl *engine.Table, c *cube.BPCube, confidence float64, seed uint64) (*Progressive, error) {
	n := tbl.NumRows()
	if n == 0 {
		return nil, fmt.Errorf("core: progressive needs a nonempty table")
	}
	if confidence == 0 {
		confidence = 0.95
	}
	r := stats.NewRNG(seed)
	p := &Progressive{
		tbl: tbl, c: c, conf: confidence,
		perm: r.Perm(n),
	}
	// An empty table with the source schema holds the growing sample.
	// String columns share the source dictionary, as Column.Gather does:
	// a query's bounds are ranks in the table's dictionary, so the
	// sample's codes must mean the same thing.
	cols := make([]*engine.Column, len(tbl.Columns))
	for i, src := range tbl.Columns {
		cols[i] = &engine.Column{Name: src.Name, Type: src.Type, Dict: src.Dict}
	}
	st, err := engine.NewTable(tbl.Name+"_prog", cols...)
	if err != nil {
		return nil, err
	}
	p.sample = &sample.Sample{Kind: sample.Uniform, Table: st, SourceRows: n}
	return p, nil
}

// Step grows the sample by up to addRows rows (fewer when the table is
// exhausted) and returns the new sample size.
func (p *Progressive) Step(addRows int) int {
	n := len(p.perm)
	rows := p.perm[p.taken : p.taken+min(max(addRows, 0), n-p.taken)]
	for j, src := range p.tbl.Columns {
		p.sample.Table.Columns[j].AppendGather(src, rows)
	}
	for range rows {
		p.sample.InvP = append(p.sample.InvP, float64(n))
	}
	p.taken += len(rows)
	return p.taken
}

// SampleSize returns the current sample size.
func (p *Progressive) SampleSize() int { return p.taken }

// Answer answers a SUM/COUNT query at the current sample size. With a
// cube, identification runs on the whole current sample (no separate
// subsample: in the online setting the sample is the scarce resource).
func (p *Progressive) Answer(q engine.Query) (Answer, error) {
	if p.taken == 0 {
		return Answer{}, fmt.Errorf("core: progressive sample is empty; call Step first")
	}
	if q.Func != engine.Sum && q.Func != engine.Count {
		return Answer{}, fmt.Errorf("core: progressive answers SUM/COUNT, got %v: %w", q.Func, ErrUnsupported)
	}
	proc := &Processor{Sample: p.sample, Confidence: p.conf}
	if p.c != nil && ((q.Func == engine.Sum && p.c.Template.Agg == q.Col) ||
		(q.Func == engine.Count && p.c.Template.Agg == "")) {
		proc.Cube = p.c
	}
	return proc.Answer(q)
}

// Trace answers the query at each step of the given schedule and returns
// the successive estimates — the classic online-aggregation progress
// curve. ctx is checked once per round, so a canceled caller unwinds
// between rounds with ctx's error and the rounds completed so far are
// discarded.
func (p *Progressive) Trace(ctx context.Context, q engine.Query, steps []int) ([]Answer, error) {
	var out []Answer
	for _, add := range steps {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		p.Step(add)
		ans, err := p.Answer(q)
		if err != nil {
			return nil, err
		}
		out = append(out, ans)
	}
	return out, nil
}
