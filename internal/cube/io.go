package cube

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

var cubeMagic = [4]byte{'A', 'Q', 'P', 'C'}

const cubeFormatVersion = 1

// maxPrealloc caps the elements a count read from a stream may reserve
// before any of them has arrived. An honest count up to it gets an exact
// allocation; a larger one grows by append as values actually arrive,
// so a corrupt count fails at EOF instead of exhausting memory.
const maxPrealloc = 1 << 20

// WriteBinary serializes the cube in a compact little-endian format so a
// precomputed BP-Cube can be stored alongside its sample.
func (c *BPCube) WriteBinary(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(cubeMagic[:]); err != nil {
		return err
	}
	if err := wuv(bw, cubeFormatVersion); err != nil {
		return err
	}
	if err := wstr(bw, c.Template.Agg); err != nil {
		return err
	}
	if err := wuv(bw, uint64(len(c.Template.Dims))); err != nil {
		return err
	}
	for _, d := range c.Template.Dims {
		if err := wstr(bw, d); err != nil {
			return err
		}
	}
	if err := wuv(bw, uint64(c.SourceRows)); err != nil {
		return err
	}
	for _, pts := range c.Points {
		if err := wuv(bw, uint64(len(pts))); err != nil {
			return err
		}
		for _, p := range pts {
			if err := wf64(bw, p); err != nil {
				return err
			}
		}
	}
	if err := wuv(bw, uint64(len(c.Cells))); err != nil {
		return err
	}
	for _, v := range c.Cells {
		if err := wf64(bw, v); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadBinary deserializes a cube written with WriteBinary.
func ReadBinary(r io.Reader) (*BPCube, error) {
	br := bufio.NewReader(r)
	var m [4]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return nil, err
	}
	if m != cubeMagic {
		return nil, fmt.Errorf("cube: bad magic %q", m)
	}
	ver, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if ver != cubeFormatVersion {
		return nil, fmt.Errorf("cube: unsupported version %d", ver)
	}
	c := &BPCube{}
	if c.Template.Agg, err = rstr(br); err != nil {
		return nil, err
	}
	nd, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	c.Template.Dims = make([]string, 0, min(nd, maxPrealloc))
	for i := uint64(0); i < nd; i++ {
		d, err := rstr(br)
		if err != nil {
			return nil, err
		}
		c.Template.Dims = append(c.Template.Dims, d)
	}
	sr, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	c.SourceRows = int(sr)
	c.Points = make([][]float64, len(c.Template.Dims))
	expectCells := uint64(1)
	for i := range c.Points {
		np, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, err
		}
		if c.Points[i], err = rf64s(br, np); err != nil {
			return nil, err
		}
		if np != 0 && expectCells > math.MaxInt/np {
			return nil, fmt.Errorf("cube: shape overflows at dimension %d", i)
		}
		expectCells *= np
	}
	nc, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if nc != expectCells {
		return nil, fmt.Errorf("cube: %d cells but shape implies %d", nc, expectCells)
	}
	if c.Cells, err = rf64s(br, nc); err != nil {
		return nil, err
	}
	c.computeStrides()
	return c, nil
}

func wuv(w *bufio.Writer, v uint64) error {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	_, err := w.Write(buf[:n])
	return err
}

func wstr(w *bufio.Writer, s string) error {
	if err := wuv(w, uint64(len(s))); err != nil {
		return err
	}
	_, err := w.WriteString(s)
	return err
}

func wf64(w *bufio.Writer, f float64) error {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], math.Float64bits(f))
	_, err := w.Write(buf[:])
	return err
}

func rstr(r *bufio.Reader) (string, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return "", err
	}
	if n > 1<<20 {
		return "", fmt.Errorf("cube: string length %d too large", n)
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r, b); err != nil {
		return "", err
	}
	return string(b), nil
}

// rf64s reads n floats, reserving at most maxPrealloc of them up front.
// It reads 512 words per call through one buffer: a buffer per float
// escapes to the heap through io.Reader, an allocation a value, and a
// min/max index holds a float pair per table row.
func rf64s(r *bufio.Reader, n uint64) ([]float64, error) {
	out := make([]float64, 0, min(n, maxPrealloc))
	buf := make([]byte, 8*min(n, 512))
	for left := n; left > 0; {
		b := buf[:8*min(left, 512)]
		if _, err := io.ReadFull(r, b); err != nil {
			return nil, err
		}
		for i := 0; i < len(b); i += 8 {
			out = append(out, math.Float64frombits(binary.LittleEndian.Uint64(b[i:])))
		}
		left -= uint64(len(b) / 8)
	}
	return out, nil
}
