package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"

	"aqppp/internal/cube"
	"aqppp/internal/engine"
	"aqppp/internal/sample"
)

// Prep is one prepared query handle persisted alongside its table: the
// sample(s), BP-cubes and min/max indexes that core.Processor needs, so
// a restart is a metadata load instead of a rebuild. The store layer
// deliberately stays below internal/core — the root package converts
// between Prep and core.Processor.
type Prep struct {
	Name       string
	Sample     *sample.Sample
	Sub        *sample.Sample
	Cube       *cube.BPCube
	CountCube  *cube.BPCube
	MinMax     []*cube.MinMaxIndex
	Confidence float64
}

// The prep section embeds three store-owned streams, each opening with
// its own magic and a uvarint version: a sample's rows as a table
// (AQPT), a BP-cube (AQPC) and a min/max index (AQPM). Every embedded
// sample, cube and index is length-prefixed, so the decoder hands each
// one an exact byte slice.
var (
	tableMagic  = [4]byte{'A', 'Q', 'P', 'T'}
	cubeMagic   = [4]byte{'A', 'Q', 'P', 'C'}
	minMaxMagic = [4]byte{'A', 'Q', 'P', 'M'}
)

const streamVersion = 1

func encodePreps(b *bytes.Buffer, preps []Prep) error {
	puv(b, uint64(len(preps)))
	for i := range preps {
		p := &preps[i]
		pstr(b, p.Name)
		pf64(b, p.Confidence)
		if err := encodeSample(b, p.Sample); err != nil {
			return fmt.Errorf("store: prep %q sample: %w", p.Name, err)
		}
		if err := encodeSample(b, p.Sub); err != nil {
			return fmt.Errorf("store: prep %q subsample: %w", p.Name, err)
		}
		encodeCube(b, p.Cube)
		encodeCube(b, p.CountCube)
		puv(b, uint64(len(p.MinMax)))
		for _, m := range p.MinMax {
			prefixed(b, func(blob *bytes.Buffer) { encodeMinMax(blob, m) })
		}
	}
	return nil
}

// decodePreps parses the prep section of the container holding tbl.
func decodePreps(data []byte, tbl *engine.Table) ([]Prep, error) {
	r := &byteReader{data: data}
	// A handle is at least a name length, the f64 confidence, four
	// presence bytes and a min/max count.
	n, err := r.count(1 + 8 + 4 + 1)
	if err != nil {
		return nil, err
	}
	preps := make([]Prep, n)
	for i := range preps {
		p := &preps[i]
		if p.Name, err = r.str(); err != nil {
			return nil, err
		}
		if p.Confidence, err = r.f64(); err != nil {
			return nil, err
		}
		if p.Sample, err = decodeSample(r); err != nil {
			return nil, fmt.Errorf("store: prep %q sample: %w", p.Name, err)
		}
		if p.Sub, err = decodeSample(r); err != nil {
			return nil, fmt.Errorf("store: prep %q subsample: %w", p.Name, err)
		}
		if p.Cube, err = decodeCube(r); err != nil {
			return nil, fmt.Errorf("store: prep %q cube: %w", p.Name, err)
		}
		if p.CountCube, err = decodeCube(r); err != nil {
			return nil, fmt.Errorf("store: prep %q count cube: %w", p.Name, err)
		}
		nm, err := r.count(1) // a length prefix each
		if err != nil {
			return nil, err
		}
		p.MinMax = make([]*cube.MinMaxIndex, nm)
		for j := range p.MinMax {
			blob, err := r.prefixed()
			if err != nil {
				return nil, err
			}
			if p.MinMax[j], err = decodeMinMax(blob); err != nil {
				return nil, fmt.Errorf("store: prep %q minmax %d: %w", p.Name, j, err)
			}
		}
		if err := checkPrep(p, tbl); err != nil {
			return nil, corruptf("prep %q: %v", p.Name, err)
		}
	}
	return preps, nil
}

// checkPrep refuses a prep whose parts each parse but disagree: a
// missing sample, a sample whose weights or stratum indexes do not fit
// its rows, or a cube or min/max index over a column the table or a
// sample lacks. Each would fail the first query that reads it, some by
// a panic.
func checkPrep(p *Prep, tbl *engine.Table) error {
	if p.Sample == nil {
		return fmt.Errorf("no sample")
	}
	samples := []*sample.Sample{p.Sample}
	if p.Sub != nil {
		samples = append(samples, p.Sub)
	}
	for _, s := range samples {
		if err := checkSample(s); err != nil {
			return fmt.Errorf("sample %q: %v", s.Table.Name, err)
		}
	}
	var cols []string
	for _, c := range []*cube.BPCube{p.Cube, p.CountCube} {
		if c != nil {
			cols = append(append(cols, c.Template.Agg), c.Template.Dims...)
		}
	}
	for _, m := range p.MinMax {
		cols = append(cols, m.Agg, m.Dim)
	}
	for _, col := range cols {
		if col == "" { // a COUNT cube's aggregate
			continue
		}
		if !tbl.HasColumn(col) {
			return fmt.Errorf("column %q is not in the table", col)
		}
		for _, s := range samples {
			if !s.Table.HasColumn(col) {
				return fmt.Errorf("column %q is not in sample %q", col, s.Table.Name)
			}
		}
	}
	return nil
}

// checkSample requires the weights the estimators read to cover every
// row: InvP for uniform and measure-biased samples, StratumOf (each
// entry a stratum) for stratified ones.
func checkSample(s *sample.Sample) error {
	n := s.Size()
	invP, stratumOf := n, 0
	switch s.Kind {
	case sample.Uniform, sample.MeasureBiased:
	case sample.Stratified:
		invP, stratumOf = 0, n
	default:
		return fmt.Errorf("unknown kind %d", s.Kind)
	}
	if len(s.InvP) != invP || len(s.StratumOf) != stratumOf {
		return fmt.Errorf("%v sample of %d rows has %d weights and %d stratum indexes",
			s.Kind, n, len(s.InvP), len(s.StratumOf))
	}
	for i, h := range s.StratumOf {
		if h < 0 || h >= len(s.Strata) {
			return fmt.Errorf("row %d is in stratum %d of %d", i, h, len(s.Strata))
		}
	}
	return nil
}

// prefixed writes what fill writes to b behind its uvarint length.
func prefixed(b *bytes.Buffer, fill func(*bytes.Buffer)) {
	var blob bytes.Buffer
	fill(&blob)
	puv(b, uint64(blob.Len()))
	b.Write(blob.Bytes())
}

// prefixed reads a uvarint length and returns a reader over that many
// following bytes.
func (r *byteReader) prefixed() (*byteReader, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(r.remaining()) {
		return nil, corruptf("blob length %d exceeds %d remaining bytes", n, r.remaining())
	}
	b, err := r.bytes(int(n))
	return &byteReader{data: b}, err
}

// stream checks an embedded stream's magic and version.
func (r *byteReader) stream(magic [4]byte) error {
	b, err := r.bytes(len(magic))
	if err != nil {
		return err
	}
	if [4]byte(b) != magic {
		return corruptf("bad magic %q, want %q", b, magic[:])
	}
	v, err := r.uvarint()
	if err != nil {
		return err
	}
	if v != streamVersion {
		return fmt.Errorf("store: unsupported %s version %d", magic[:], v)
	}
	return nil
}

// encodeSample writes a nil-able sample: presence byte, then structure
// fields, then the sample rows as a table stream. A backend-served
// sample table is refused: its rows live in another container.
func encodeSample(b *bytes.Buffer, s *sample.Sample) error {
	if s == nil {
		b.WriteByte(0)
		return nil
	}
	if s.Table.Backed() {
		return fmt.Errorf("table %q is backend-served; persist it with the store format", s.Table.Name)
	}
	b.WriteByte(1)
	var err error
	prefixed(b, func(blob *bytes.Buffer) {
		blob.WriteByte(byte(s.Kind))
		puv(blob, uint64(s.SourceRows))
		puv(blob, uint64(len(s.InvP)))
		for _, v := range s.InvP {
			pf64(blob, v)
		}
		puv(blob, uint64(len(s.Strata)))
		for _, st := range s.Strata {
			pstr(blob, st.Key)
			puv(blob, uint64(st.SourceRows))
			puv(blob, uint64(st.SampleRows))
		}
		puv(blob, uint64(len(s.StratumOf)))
		for _, v := range s.StratumOf {
			puv(blob, uint64(v))
		}
		err = encodeTable(blob, s.Table)
	})
	return err
}

func decodeSample(r *byteReader) (*sample.Sample, error) {
	present, err := r.byteVal()
	if err != nil || present == 0 {
		return nil, err
	}
	br, err := r.prefixed()
	if err != nil {
		return nil, err
	}
	s := &sample.Sample{}
	kind, err := br.byteVal()
	if err != nil {
		return nil, err
	}
	s.Kind = sample.Kind(kind)
	sr, err := br.uvarint()
	if err != nil {
		return nil, err
	}
	s.SourceRows = int(sr)
	ni, err := br.count(8)
	if err != nil {
		return nil, err
	}
	if s.InvP, err = br.f64s(ni); err != nil {
		return nil, err
	}
	ns, err := br.count(3) // key length + two row counts
	if err != nil {
		return nil, err
	}
	if ns > 0 {
		s.Strata = make([]sample.Stratum, ns)
		for i := range s.Strata {
			st := &s.Strata[i]
			if st.Key, err = br.str(); err != nil {
				return nil, err
			}
			v, err := br.uvarint()
			if err != nil {
				return nil, err
			}
			st.SourceRows = int(v)
			if v, err = br.uvarint(); err != nil {
				return nil, err
			}
			st.SampleRows = int(v)
		}
	}
	no, err := br.count(1)
	if err != nil {
		return nil, err
	}
	if no > 0 {
		s.StratumOf = make([]int, no)
		for i := range s.StratumOf {
			v, err := br.uvarint()
			if err != nil {
				return nil, err
			}
			s.StratumOf[i] = int(v)
		}
	}
	if s.Table, err = decodeTable(br); err != nil {
		return nil, err
	}
	return s, nil
}

// encodeTable writes t as a table stream: magic, version, name, column
// and row counts, then per column its name, type byte and values — raw
// little-endian words for ints and floats; for strings the dictionary,
// then one uint32 code per row.
func encodeTable(b *bytes.Buffer, t *engine.Table) error {
	b.Write(tableMagic[:])
	puv(b, streamVersion)
	pstr(b, t.Name)
	puv(b, uint64(len(t.Columns)))
	puv(b, uint64(t.NumRows()))
	for _, c := range t.Columns {
		pstr(b, c.Name)
		b.WriteByte(byte(c.Type))
		switch c.Type {
		case engine.Int64:
			for _, v := range c.Ints {
				pu64(b, uint64(v))
			}
		case engine.Float64:
			for _, v := range c.Floats {
				pf64(b, v)
			}
		case engine.String:
			puv(b, uint64(len(c.Dict)))
			for _, s := range c.Dict {
				pstr(b, s)
			}
			var tmp [4]byte
			for _, code := range c.Codes {
				binary.LittleEndian.PutUint32(tmp[:], uint32(code))
				b.Write(tmp[:])
			}
		default:
			return fmt.Errorf("column %q has unknown type %v", c.Name, c.Type)
		}
	}
	return nil
}

func decodeTable(r *byteReader) (*engine.Table, error) {
	if err := r.stream(tableMagic); err != nil {
		return nil, err
	}
	name, err := r.str()
	if err != nil {
		return nil, err
	}
	ncols, err := r.count(2) // a name length and a type byte each
	if err != nil {
		return nil, err
	}
	nrows, err := r.count(4) // each column holds at least a 4-byte code per row
	if err != nil {
		return nil, err
	}
	cols := make([]*engine.Column, ncols)
	for i := range cols {
		c := &engine.Column{}
		if c.Name, err = r.str(); err != nil {
			return nil, err
		}
		tb, err := r.byteVal()
		if err != nil {
			return nil, err
		}
		c.Type = engine.ColType(tb)
		switch c.Type {
		case engine.Int64:
			b, err := r.bytes(8 * nrows)
			if err != nil {
				return nil, err
			}
			c.Ints = make([]int64, nrows)
			for j := range c.Ints {
				c.Ints[j] = int64(binary.LittleEndian.Uint64(b[8*j:]))
			}
		case engine.Float64:
			if c.Floats, err = r.f64s(nrows); err != nil {
				return nil, err
			}
		case engine.String:
			if c.Dict, err = r.strs(); err != nil {
				return nil, err
			}
			b, err := r.bytes(4 * nrows)
			if err != nil {
				return nil, err
			}
			c.Codes = make([]int32, nrows)
			for j := range c.Codes {
				code := int32(binary.LittleEndian.Uint32(b[4*j:]))
				if code < 0 || int(code) >= len(c.Dict) {
					return nil, corruptf("column %q: dictionary code %d out of range", c.Name, code)
				}
				c.Codes[j] = code
			}
		default:
			return nil, corruptf("column %q has unknown type byte %d", c.Name, tb)
		}
		cols[i] = c
	}
	return engine.NewTable(name, cols...)
}

// ReadLegacyTable reads a standalone table stream, the .tbl file format
// earlier versions wrote, so it can be migrated into a container.
func ReadLegacyTable(path string) (*engine.Table, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return decodeTable(&byteReader{data: data})
}

// encodeCube writes a nil-able cube. Its blob starts with a reserved
// byte, written 0: it once flagged a complete P-Cube, which nothing
// builds any more, and readers ignore it. The cube stream follows:
// template, source rows, each dimension's points, then the cells.
func encodeCube(b *bytes.Buffer, c *cube.BPCube) {
	if c == nil {
		b.WriteByte(0)
		return
	}
	b.WriteByte(1)
	prefixed(b, func(blob *bytes.Buffer) {
		blob.WriteByte(0)
		blob.Write(cubeMagic[:])
		puv(blob, streamVersion)
		pstr(blob, c.Template.Agg)
		puv(blob, uint64(len(c.Template.Dims)))
		for _, d := range c.Template.Dims {
			pstr(blob, d)
		}
		puv(blob, uint64(c.SourceRows))
		for _, pts := range c.Points {
			puv(blob, uint64(len(pts)))
			for _, p := range pts {
				pf64(blob, p)
			}
		}
		puv(blob, uint64(len(c.Cells)))
		for _, v := range c.Cells {
			pf64(blob, v)
		}
	})
}

func decodeCube(r *byteReader) (*cube.BPCube, error) {
	present, err := r.byteVal()
	if err != nil || present == 0 {
		return nil, err
	}
	br, err := r.prefixed()
	if err != nil {
		return nil, err
	}
	if _, err := br.byteVal(); err != nil { // reserved
		return nil, err
	}
	if err := br.stream(cubeMagic); err != nil {
		return nil, err
	}
	var tmpl cube.Template
	if tmpl.Agg, err = br.str(); err != nil {
		return nil, err
	}
	if tmpl.Dims, err = br.strs(); err != nil {
		return nil, err
	}
	sr, err := br.uvarint()
	if err != nil {
		return nil, err
	}
	points := make([][]float64, len(tmpl.Dims))
	for i := range points {
		np, err := br.count(8)
		if err != nil {
			return nil, err
		}
		if points[i], err = br.f64s(np); err != nil {
			return nil, err
		}
	}
	nc, err := br.count(8)
	if err != nil {
		return nil, err
	}
	cells, err := br.f64s(nc)
	if err != nil {
		return nil, err
	}
	return cube.Assemble(tmpl, points, cells, int(sr))
}

// encodeMinMax writes an index as a min/max stream: dimension and
// aggregate names, the pair count, then every ordinal and every value.
// The sparse-table levels are derived data, rebuilt on read.
func encodeMinMax(b *bytes.Buffer, m *cube.MinMaxIndex) {
	ords, vals := m.Pairs()
	b.Write(minMaxMagic[:])
	puv(b, streamVersion)
	pstr(b, m.Dim)
	pstr(b, m.Agg)
	puv(b, uint64(len(ords)))
	for _, o := range ords {
		pf64(b, o)
	}
	for _, v := range vals {
		pf64(b, v)
	}
}

func decodeMinMax(r *byteReader) (*cube.MinMaxIndex, error) {
	if err := r.stream(minMaxMagic); err != nil {
		return nil, err
	}
	dim, err := r.str()
	if err != nil {
		return nil, err
	}
	agg, err := r.str()
	if err != nil {
		return nil, err
	}
	n, err := r.count(16) // an ordinal and a value each
	if err != nil {
		return nil, err
	}
	ords, err := r.f64s(n)
	if err != nil {
		return nil, err
	}
	vals, err := r.f64s(n)
	if err != nil {
		return nil, err
	}
	return cube.MinMaxFromPairs(dim, agg, ords, vals)
}
