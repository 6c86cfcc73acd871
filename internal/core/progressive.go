package core

import (
	"fmt"
	"math/bits"
	"slices"

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
	// prefix is the part of a random permutation of the table's rows
	// drawn so far, by a forward Fisher–Yates shuffle: position i's row
	// is drawn when Step reaches i. The sample is always the rows of
	// prefix, which makes every prefix an exact uniform without-
	// replacement sample, and a seed fixes the permutation however the
	// steps are sized.
	prefix    []int
	rng       *stats.RNG
	displaced displacedRows
	sample    *sample.Sample
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
		sample: &sample.Sample{Kind: sample.Uniform, Table: st, SourceRows: n},
	}, nil
}

// Step grows the sample by up to addRows rows (fewer when the table is
// exhausted) and returns the new sample size.
func (p *Progressive) Step(addRows int) int {
	n := p.tbl.NumRows()
	start := len(p.prefix)
	end := start + min(max(addRows, 0), n-start)
	p.prefix = slices.Grow(p.prefix, end-start)
	p.displaced.reserve(p.displaced.live + end - start)
	for i := start; i < end; i++ {
		j := i + p.rng.Intn(n-i)
		row := p.displaced.take(i)
		if j != i {
			row = p.displaced.swap(j, row)
		}
		p.prefix = append(p.prefix, row)
	}
	rows := p.prefix[start:]
	for j, col := range p.sample.Table.Columns {
		col.AppendGather(p.src[j], rows)
	}
	for range rows {
		p.sample.InvP = append(p.sample.InvP, float64(n))
	}
	return len(p.prefix)
}

// displacedRows maps undrawn permutation positions to the rows an
// earlier swap moved into them; a position it does not hold still holds
// its own row. It is an open-addressing table with linear probing: a
// slot's key is its position plus one, so a zeroed slot is empty, and at
// most half the slots are full.
type displacedRows struct {
	slots []displacedSlot
	shift uint // 64 − log2(len(slots))
	live  int
}

type displacedSlot struct{ key, row int }

// slot returns the index of pos's slot, or of the empty slot that ends
// its probe run.
func (d *displacedRows) slot(pos int) int {
	mask := len(d.slots) - 1
	for s := d.home(pos); ; s = (s + 1) & mask {
		if k := d.slots[s].key; k == 0 || k == pos+1 {
			return s
		}
	}
}

// home is pos's first probe: Fibonacci hashing onto the table's size.
func (d *displacedRows) home(pos int) int {
	return int(uint64(pos) * 0x9e3779b97f4a7c15 >> d.shift)
}

// take returns the row at position pos and forgets pos.
func (d *displacedRows) take(pos int) int {
	if d.live == 0 {
		return pos
	}
	s := d.slot(pos)
	if d.slots[s].key == 0 {
		return pos
	}
	row := d.slots[s].row
	// Backward-shift deletion: move each later entry of the probe run
	// whose home is not after the hole into it, so no lookup ever needs
	// a tombstone.
	mask := len(d.slots) - 1
	hole := s
	for t := (s + 1) & mask; d.slots[t].key != 0; t = (t + 1) & mask {
		if (t-d.home(d.slots[t].key-1))&mask >= (t-hole)&mask {
			d.slots[hole] = d.slots[t]
			hole = t
		}
	}
	d.slots[hole] = displacedSlot{}
	d.live--
	return row
}

// swap puts row at position pos and returns the row pos held. The
// table must have room for one more entry (see reserve).
func (d *displacedRows) swap(pos, row int) int {
	s := d.slot(pos)
	old := pos
	if d.slots[s].key == 0 {
		d.live++
	} else {
		old = d.slots[s].row
	}
	d.slots[s] = displacedSlot{key: pos + 1, row: row}
	return old
}

// reserve makes room for up to entries live entries, growing the table
// to a power of two at least twice that and reinserting every entry.
func (d *displacedRows) reserve(entries int) {
	if 2*entries <= len(d.slots) {
		return
	}
	old := d.slots
	size := 1 << bits.Len(uint(2*entries-1))
	d.slots = make([]displacedSlot, size)
	d.shift = uint(64 - bits.TrailingZeros(uint(size)))
	for _, e := range old {
		if e.key != 0 {
			d.slots[d.slot(e.key-1)] = e
		}
	}
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
