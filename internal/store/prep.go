package store

import (
	"bytes"
	"context"
	"fmt"

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

// Embedded streams (samples, cubes, indexes) are length-prefixed even
// though they self-delimit: their readers buffer, and a prefix lets the
// decoder hand each one an exact byte slice.

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
		if err := encodeCube(b, p.Cube); err != nil {
			return fmt.Errorf("store: prep %q cube: %w", p.Name, err)
		}
		if err := encodeCube(b, p.CountCube); err != nil {
			return fmt.Errorf("store: prep %q count cube: %w", p.Name, err)
		}
		puv(b, uint64(len(p.MinMax)))
		for _, m := range p.MinMax {
			var blob bytes.Buffer
			if err := m.WriteBinary(&blob); err != nil {
				return fmt.Errorf("store: prep %q minmax: %w", p.Name, err)
			}
			puv(b, uint64(blob.Len()))
			b.Write(blob.Bytes())
		}
	}
	return nil
}

func decodePreps(data []byte) ([]Prep, error) {
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
			blob, err := lengthPrefixed(r)
			if err != nil {
				return nil, err
			}
			if p.MinMax[j], err = cube.ReadMinMax(bytes.NewReader(blob)); err != nil {
				return nil, fmt.Errorf("store: prep %q minmax %d: %w", p.Name, j, err)
			}
		}
	}
	return preps, nil
}

// encodeSample writes a nil-able sample: presence byte, then structure
// fields, then the sample rows as a legacy AQPT table stream (the one
// place that format remains load-bearing).
func encodeSample(b *bytes.Buffer, s *sample.Sample) error {
	if s == nil {
		b.WriteByte(0)
		return nil
	}
	b.WriteByte(1)
	var blob bytes.Buffer
	blob.WriteByte(byte(s.Kind))
	puv(&blob, uint64(s.SourceRows))
	puv(&blob, uint64(len(s.InvP)))
	for _, v := range s.InvP {
		pf64(&blob, v)
	}
	puv(&blob, uint64(len(s.Strata)))
	for _, st := range s.Strata {
		pstr(&blob, st.Key)
		puv(&blob, uint64(st.SourceRows))
		puv(&blob, uint64(st.SampleRows))
	}
	puv(&blob, uint64(len(s.StratumOf)))
	for _, v := range s.StratumOf {
		puv(&blob, uint64(v))
	}
	if err := s.Table.WriteBinary(&blob); err != nil {
		return err
	}
	puv(b, uint64(blob.Len()))
	b.Write(blob.Bytes())
	return nil
}

func decodeSample(r *byteReader) (*sample.Sample, error) {
	present, err := r.byteVal()
	if err != nil {
		return nil, err
	}
	if present == 0 {
		return nil, nil
	}
	blob, err := lengthPrefixed(r)
	if err != nil {
		return nil, err
	}
	br := &byteReader{data: blob}
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
	if ni > 0 {
		s.InvP = make([]float64, ni)
		for i := range s.InvP {
			if s.InvP[i], err = br.f64(); err != nil {
				return nil, err
			}
		}
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
	rest := blob[br.pos:]
	// The bytes are already in memory and store.Open's signature carries
	// no context to cancel the decode with.
	if s.Table, err = engine.ReadBinary(context.TODO(), bytes.NewReader(rest)); err != nil {
		return nil, err
	}
	return s, nil
}

// encodeCube writes a nil-able cube. Its blob starts with a reserved
// byte, written 0: it once flagged a complete P-Cube, which nothing
// builds any more, and readers ignore it.
func encodeCube(b *bytes.Buffer, c *cube.BPCube) error {
	if c == nil {
		b.WriteByte(0)
		return nil
	}
	b.WriteByte(1)
	var blob bytes.Buffer
	blob.WriteByte(0)
	if err := c.WriteBinary(&blob); err != nil {
		return err
	}
	puv(b, uint64(blob.Len()))
	b.Write(blob.Bytes())
	return nil
}

func decodeCube(r *byteReader) (*cube.BPCube, error) {
	present, err := r.byteVal()
	if err != nil {
		return nil, err
	}
	if present == 0 {
		return nil, nil
	}
	blob, err := lengthPrefixed(r)
	if err != nil {
		return nil, err
	}
	if len(blob) < 1 {
		return nil, corruptf("empty cube blob")
	}
	return cube.ReadBinary(bytes.NewReader(blob[1:])) // blob[0] is reserved
}

func lengthPrefixed(r *byteReader) ([]byte, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(r.remaining()) {
		return nil, corruptf("blob length %d exceeds %d remaining bytes", n, r.remaining())
	}
	return r.bytes(int(n))
}
