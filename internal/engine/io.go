package engine

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// ioBatchRows is the cancellation granularity of the context-aware
// readers: one ctx poll per this many rows, so a canceled load unwinds
// within a batch without putting a branch on every row's hot path. It
// matches the engine's zone-block size so load and scan share one
// latency story.
const ioBatchRows = 4096

// maxPrealloc caps the elements a count read from a stream may reserve
// before any of them has arrived. An honest count up to it gets an exact
// allocation; a larger one grows by append as values actually arrive,
// so a corrupt count fails at EOF instead of exhausting memory.
const maxPrealloc = 1 << 20

// magic identifies the binary table format; version follows it.
var magic = [4]byte{'A', 'Q', 'P', 'T'}

const formatVersion = 1

// WriteBinary serializes the table to w as an AQPT stream, a compact
// little-endian row-batch format. It is not a table file format any
// more — tables persist as block-structured store containers
// (internal/store, aqppp.SaveStore) and no command loads an AQPT file
// as a table source. It stays because internal/store/prep.go embeds
// each prepared sample in its container as an AQPT stream, and because
// `aqppp-gen -convert` reads old .tbl files once to migrate them.
func (t *Table) WriteBinary(w io.Writer) error {
	if t.Backed() {
		return fmt.Errorf("engine: table %q is backend-served; persist it with the store format", t.Name)
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magic[:]); err != nil {
		return err
	}
	if err := writeUvarint(bw, formatVersion); err != nil {
		return err
	}
	if err := writeString(bw, t.Name); err != nil {
		return err
	}
	if err := writeUvarint(bw, uint64(len(t.Columns))); err != nil {
		return err
	}
	if err := writeUvarint(bw, uint64(t.NumRows())); err != nil {
		return err
	}
	for _, c := range t.Columns {
		if err := writeColumn(bw, c); err != nil {
			return fmt.Errorf("engine: write column %q: %w", c.Name, err)
		}
	}
	return bw.Flush()
}

// ReadBinary deserializes a table previously written with WriteBinary.
// The reader checks ctx once per row batch (ioBatchRows rows) inside
// each column, so a canceled context unwinds a large load within one
// batch. The returned error is ctx.Err() when the cancel landed
// mid-load.
func ReadBinary(ctx context.Context, r io.Reader) (*Table, error) {
	br := bufio.NewReader(r)
	var m [4]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return nil, err
	}
	if m != magic {
		return nil, fmt.Errorf("engine: bad magic %q", m)
	}
	ver, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if ver != formatVersion {
		return nil, fmt.Errorf("engine: unsupported format version %d", ver)
	}
	name, err := readString(br)
	if err != nil {
		return nil, err
	}
	ncols, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	nrows, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	t := &Table{Name: name, byName: make(map[string]int)}
	for i := uint64(0); i < ncols; i++ {
		c, err := readColumn(ctx, br, nrows)
		if err != nil {
			return nil, fmt.Errorf("engine: read column %d: %w", i, err)
		}
		if err := t.AddColumn(c); err != nil {
			return nil, err
		}
	}
	return t, nil
}

func writeColumn(w *bufio.Writer, c *Column) error {
	if err := writeString(w, c.Name); err != nil {
		return err
	}
	if err := w.WriteByte(byte(c.Type)); err != nil {
		return err
	}
	var buf [8]byte
	switch c.Type {
	case Int64:
		for _, v := range c.Ints {
			binary.LittleEndian.PutUint64(buf[:], uint64(v))
			if _, err := w.Write(buf[:]); err != nil {
				return err
			}
		}
	case Float64:
		for _, v := range c.Floats {
			binary.LittleEndian.PutUint64(buf[:], mathFloat64bits(v))
			if _, err := w.Write(buf[:]); err != nil {
				return err
			}
		}
	case String:
		if err := writeUvarint(w, uint64(len(c.Dict))); err != nil {
			return err
		}
		for _, s := range c.Dict {
			if err := writeString(w, s); err != nil {
				return err
			}
		}
		for _, code := range c.Codes {
			binary.LittleEndian.PutUint32(buf[:4], uint32(code))
			if _, err := w.Write(buf[:4]); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("unknown column type %v", c.Type)
	}
	return nil
}

func readColumn(ctx context.Context, r *bufio.Reader, nrows uint64) (*Column, error) {
	name, err := readString(r)
	if err != nil {
		return nil, err
	}
	tb, err := r.ReadByte()
	if err != nil {
		return nil, err
	}
	c := &Column{Name: name, Type: ColType(tb)}
	var buf [8]byte
	switch c.Type {
	case Int64:
		c.Ints = make([]int64, 0, min(nrows, maxPrealloc))
		for i := uint64(0); i < nrows; i++ {
			if i&(ioBatchRows-1) == 0 {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			if _, err := io.ReadFull(r, buf[:]); err != nil {
				return nil, err
			}
			c.Ints = append(c.Ints, int64(binary.LittleEndian.Uint64(buf[:])))
		}
	case Float64:
		c.Floats = make([]float64, 0, min(nrows, maxPrealloc))
		for i := uint64(0); i < nrows; i++ {
			if i&(ioBatchRows-1) == 0 {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			if _, err := io.ReadFull(r, buf[:]); err != nil {
				return nil, err
			}
			c.Floats = append(c.Floats, mathFloat64frombits(binary.LittleEndian.Uint64(buf[:])))
		}
	case String:
		ndict, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, err
		}
		c.Dict = make([]string, 0, min(ndict, maxPrealloc))
		for i := uint64(0); i < ndict; i++ {
			s, err := readString(r)
			if err != nil {
				return nil, err
			}
			c.Dict = append(c.Dict, s)
		}
		c.Codes = make([]int32, 0, min(nrows, maxPrealloc))
		for i := uint64(0); i < nrows; i++ {
			if i&(ioBatchRows-1) == 0 {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			if _, err := io.ReadFull(r, buf[:4]); err != nil {
				return nil, err
			}
			code := int32(binary.LittleEndian.Uint32(buf[:4]))
			if code < 0 || int(code) >= len(c.Dict) {
				return nil, fmt.Errorf("dictionary code %d out of range", code)
			}
			c.Codes = append(c.Codes, code)
		}
	default:
		return nil, fmt.Errorf("unknown column type byte %d", tb)
	}
	return c, nil
}

func writeUvarint(w *bufio.Writer, v uint64) error {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	_, err := w.Write(buf[:n])
	return err
}

func writeString(w *bufio.Writer, s string) error {
	if err := writeUvarint(w, uint64(len(s))); err != nil {
		return err
	}
	_, err := w.WriteString(s)
	return err
}

func readString(r *bufio.Reader) (string, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return "", err
	}
	if n > 1<<24 {
		return "", fmt.Errorf("string length %d too large", n)
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r, b); err != nil {
		return "", err
	}
	return string(b), nil
}

// WriteCSV writes the table as CSV with a header row.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.ColumnNames()); err != nil {
		return err
	}
	rec := make([]string, len(t.Columns))
	for i := 0; i < t.NumRows(); i++ {
		for j, c := range t.Columns {
			rec[j] = c.StringAt(i)
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV reads a CSV with a header row into a table, inferring column
// types from the first data row: int64 if it parses as an integer, float64
// if it parses as a float, else string. An empty file yields an error.
// Both the record-reading loop and the per-column parse loops check ctx
// once per row batch (ioBatchRows rows), so a canceled context unwinds a
// large load within one batch. The returned error is ctx.Err() when the
// cancel landed mid-load.
func ReadCSV(ctx context.Context, name string, r io.Reader) (*Table, error) {
	cr := csv.NewReader(r)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("engine: read CSV header: %w", err)
	}
	var records [][]string
	for {
		if len(records)&(ioBatchRows-1) == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		records = append(records, rec)
	}
	types := make([]ColType, len(header))
	for j := range header {
		types[j] = String
		if len(records) > 0 {
			v := records[0][j]
			if _, err := strconv.ParseInt(v, 10, 64); err == nil {
				types[j] = Int64
			} else if _, err := strconv.ParseFloat(v, 64); err == nil {
				types[j] = Float64
			}
		}
	}
	cols := make([]*Column, len(header))
	for j, h := range header {
		switch types[j] {
		case Int64:
			vals := make([]int64, len(records))
			for i, rec := range records {
				if i&(ioBatchRows-1) == 0 {
					if err := ctx.Err(); err != nil {
						return nil, err
					}
				}
				v, err := strconv.ParseInt(rec[j], 10, 64)
				if err != nil {
					return nil, fmt.Errorf("engine: row %d column %q: %w", i, h, err)
				}
				vals[i] = v
			}
			cols[j] = NewIntColumn(h, vals)
		case Float64:
			vals := make([]float64, len(records))
			for i, rec := range records {
				if i&(ioBatchRows-1) == 0 {
					if err := ctx.Err(); err != nil {
						return nil, err
					}
				}
				v, err := strconv.ParseFloat(rec[j], 64)
				if err != nil {
					return nil, fmt.Errorf("engine: row %d column %q: %w", i, h, err)
				}
				vals[i] = v
			}
			cols[j] = NewFloatColumn(h, vals)
		default:
			vals := make([]string, len(records))
			for i, rec := range records {
				vals[i] = rec[j]
			}
			cols[j] = NewStringColumn(h, vals)
		}
	}
	return NewTable(name, cols...)
}
