package cube

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

var minMaxMagic = [4]byte{'A', 'Q', 'P', 'M'}

const minMaxFormatVersion = 1

// WriteBinary serializes the index in a compact little-endian format.
// Only the sorted (ordinal, value) pairs are written; the sparse-table
// levels are derived data and are rebuilt on read.
func (m *MinMaxIndex) WriteBinary(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(minMaxMagic[:]); err != nil {
		return err
	}
	if err := wuv(bw, minMaxFormatVersion); err != nil {
		return err
	}
	if err := wstr(bw, m.Dim); err != nil {
		return err
	}
	if err := wstr(bw, m.Agg); err != nil {
		return err
	}
	if err := wuv(bw, uint64(len(m.ords))); err != nil {
		return err
	}
	for _, o := range m.ords {
		if err := wf64(bw, o); err != nil {
			return err
		}
	}
	for _, v := range m.vals {
		if err := wf64(bw, v); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadMinMax deserializes an index written with WriteBinary and rebuilds
// its sparse-table levels.
func ReadMinMax(r io.Reader) (*MinMaxIndex, error) {
	br := bufio.NewReader(r)
	var mg [4]byte
	if _, err := io.ReadFull(br, mg[:]); err != nil {
		return nil, err
	}
	if mg != minMaxMagic {
		return nil, fmt.Errorf("cube: bad minmax magic %q", mg)
	}
	ver, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if ver != minMaxFormatVersion {
		return nil, fmt.Errorf("cube: unsupported minmax version %d", ver)
	}
	dim, err := rstr(br)
	if err != nil {
		return nil, err
	}
	agg, err := rstr(br)
	if err != nil {
		return nil, err
	}
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	ords, err := rf64s(br, n)
	if err != nil {
		return nil, err
	}
	vals, err := rf64s(br, n)
	if err != nil {
		return nil, err
	}
	for i := 1; i < len(ords); i++ {
		if ords[i] < ords[i-1] {
			return nil, fmt.Errorf("cube: minmax ordinals not sorted at %d", i)
		}
	}
	return newMinMaxFrom(dim, agg, ords, vals), nil
}
