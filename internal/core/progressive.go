package core

import (
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
//
// A stream pays for the rows and columns it reads, not for the table:
// Step draws the permutation one position at a time, and the sample
// holds only the columns answered queries have read. A Progressive is
// not safe for concurrent use.
type Progressive struct {
	tbl  *engine.Table
	c    *cube.BPCube
	conf float64
	// prefix is the part of perm, a random permutation of the table's
	// rows, drawn so far. The sample is always the rows of prefix, which
	// makes every prefix an exact uniform without-replacement sample, and
	// a seed fixes the permutation however the steps are sized.
	prefix []int
	rng    *stats.RNG
	perm   *sample.Permutation
	sample *sample.Sample
	// src[j] is the table column the sample's j-th column is gathered
	// from.
	src []*engine.Column
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
	// The growing sample starts with no columns: Answer gathers each
	// column the first time a query reads it.
	st, err := engine.NewTable(tbl.Name + "_prog")
	if err != nil {
		return nil, err
	}
	return &Progressive{
		tbl: tbl, c: c, conf: confidence,
		rng:    stats.NewRNG(seed),
		perm:   sample.NewPermutation(n),
		sample: &sample.Sample{Kind: sample.Uniform, Table: st, SourceRows: n},
	}, nil
}

// Step grows the sample by up to addRows rows (fewer when the table is
// exhausted) and returns the new sample size.
func (p *Progressive) Step(addRows int) int {
	n := p.tbl.NumRows()
	start := len(p.prefix)
	p.prefix = p.perm.Draw(p.rng, addRows, p.prefix)
	rows := p.prefix[start:]
	for j, col := range p.sample.Table.Columns {
		col.AppendGather(p.src[j], rows)
	}
	for range rows {
		p.sample.InvP = append(p.sample.InvP, float64(n))
	}
	return len(p.prefix)
}

// SampleSize returns the current sample size.
func (p *Progressive) SampleSize() int { return len(p.prefix) }

// Answer answers a SUM/COUNT query at the current sample size. With a
// cube, identification runs on the whole current sample (no separate
// subsample: in the online setting the sample is the scarce resource).
func (p *Progressive) Answer(q engine.Query) (Answer, error) {
	if len(p.prefix) == 0 {
		return Answer{}, fmt.Errorf("core: progressive sample is empty; call Step first")
	}
	if q.Func != engine.Sum && q.Func != engine.Count {
		return Answer{}, fmt.Errorf("core: progressive answers SUM/COUNT, got %v: %w", q.Func, ErrUnsupported)
	}
	proc := &Processor{Sample: p.sample, Cube: p.c, Confidence: p.conf}
	// The columns the answer reads: the measure, the range columns, and
	// the cube's dimensions when the cube anchors q.
	var names []string
	if q.Func == engine.Sum {
		names = append(names, q.Col)
	}
	for _, r := range q.Ranges {
		names = append(names, r.Col)
	}
	if c := proc.cubeFor(q); c != nil {
		names = append(names, c.Template.Dims...)
	}
	if err := p.gather(names); err != nil {
		return Answer{}, err
	}
	return proc.Answer(q)
}

// gather adds each named table column the sample lacks, over the whole
// current prefix; Step extends it from then on. A name the table lacks
// is left for the answer to report. A sample that would hold no column
// holds the table's first, so it keeps its row count.
func (p *Progressive) gather(names []string) error {
	for _, name := range names {
		src, err := p.tbl.Column(name)
		if err != nil || p.sample.Table.HasColumn(name) {
			continue
		}
		if err := p.add(src); err != nil {
			return err
		}
	}
	if p.sample.Table.NumCols() == 0 {
		return p.add(p.tbl.Columns[0])
	}
	return nil
}

func (p *Progressive) add(src *engine.Column) error {
	if err := p.sample.Table.AddColumn(src.Gather(p.prefix)); err != nil {
		return err
	}
	p.src = append(p.src, src)
	return nil
}
