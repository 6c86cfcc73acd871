package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"os"

	"aqppp/internal/engine"
)

// Write persists a resident table — and optionally its prepared handles
// (samples, cubes, min/max indexes) — as one store container at path.
// The write is atomic: data goes to path+".tmp" and is renamed into
// place only after a successful sync, so a crash never leaves a
// half-written store where a good one was expected.
//
// Backend-served tables cannot be re-written (their data already lives
// in a store container); Write refuses them.
func Write(path string, tbl *engine.Table, preps []Prep) error {
	if tbl.Backed() {
		return fmt.Errorf("store: table %q is already backend-served; copy it before re-writing", tbl.Name)
	}
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	err = writeContainer(f, tbl, preps)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		_ = os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		_ = os.Remove(tmp)
		return err
	}
	return nil
}

func writeContainer(f *os.File, tbl *engine.Table, preps []Prep) error {
	w := bufio.NewWriterSize(f, 1<<20)
	var off int64

	// Header.
	var hdr [headerSize]byte
	copy(hdr[:4], storeMagic[:])
	binary.LittleEndian.PutUint32(hdr[4:8], formatVersion)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	off += headerSize

	// Data blocks, column-major; collect per-column metadata as we go.
	n := tbl.NumRows()
	nb := (n + blockRows - 1) / blockRows
	cols := make([]colMeta, len(tbl.Columns))
	var scratch bytes.Buffer
	for ci, c := range tbl.Columns {
		cm := &cols[ci]
		cm.name = c.Name
		cm.typ = c.Type
		cm.offs = make([]int64, nb+1)
		// The engine's own block summaries, so a scan over the reopened
		// container classifies blocks exactly as the resident scan did.
		cm.mins, cm.maxs = c.BlockZones()
		if c.Type == engine.String {
			cm.dict = c.Dict
		}
		if c.Type == engine.Int64 && n > 0 {
			cm.hasBounds = true
			cm.loBound, cm.hiBound = c.Ints[0], c.Ints[0]
			for _, v := range c.Ints[1:] {
				if v < cm.loBound {
					cm.loBound = v
				}
				if v > cm.hiBound {
					cm.hiBound = v
				}
			}
		}
		for b := 0; b < nb; b++ {
			lo := b * blockRows
			hi := lo + blockRows
			if hi > n {
				hi = n
			}
			cm.offs[b] = off
			scratch.Reset()
			encodeBlock(&scratch, c, lo, hi)
			if _, err := w.Write(scratch.Bytes()); err != nil {
				return err
			}
			off += int64(scratch.Len())
		}
		cm.offs[nb] = off
	}

	// Meta section.
	var meta bytes.Buffer
	encodeMeta(&meta, tbl.Name, n, cols)
	metaOff, metaLen := off, int64(meta.Len())
	if _, err := w.Write(meta.Bytes()); err != nil {
		return err
	}
	off += metaLen

	// Prep section.
	var prep bytes.Buffer
	if err := encodePreps(&prep, preps); err != nil {
		return err
	}
	prepOff, prepLen := off, int64(prep.Len())
	if _, err := w.Write(prep.Bytes()); err != nil {
		return err
	}

	// Footer.
	var ftr [footerSize]byte
	binary.LittleEndian.PutUint64(ftr[0:8], uint64(metaOff))
	binary.LittleEndian.PutUint64(ftr[8:16], uint64(metaLen))
	binary.LittleEndian.PutUint32(ftr[16:20], checksum(meta.Bytes()))
	binary.LittleEndian.PutUint64(ftr[20:28], uint64(prepOff))
	binary.LittleEndian.PutUint64(ftr[28:36], uint64(prepLen))
	binary.LittleEndian.PutUint32(ftr[36:40], checksum(prep.Bytes()))
	binary.LittleEndian.PutUint32(ftr[40:44], checksum(ftr[:40]))
	copy(ftr[44:48], storeMagic[:])
	if _, err := w.Write(ftr[:]); err != nil {
		return err
	}
	return w.Flush()
}

// encodeBlock writes rows [lo, hi) of c as one block: encoding byte +
// payload. Int blocks use varint-delta when the run is non-decreasing
// (the clustered-key case where it wins), raw words otherwise.
func encodeBlock(b *bytes.Buffer, c *engine.Column, lo, hi int) {
	switch c.Type {
	case engine.Int64:
		vals := c.Ints[lo:hi]
		sorted := true
		for i := 1; i < len(vals); i++ {
			if vals[i] < vals[i-1] {
				sorted = false
				break
			}
		}
		if sorted && len(vals) > 0 {
			b.WriteByte(encDeltaInt)
			pvarint(b, vals[0])
			for i := 1; i < len(vals); i++ {
				// Non-decreasing, so the wrapped uint64 difference is the
				// exact magnitude even across the int64 midpoint.
				puv(b, uint64(vals[i])-uint64(vals[i-1]))
			}
			return
		}
		b.WriteByte(encRawInt)
		for _, v := range vals {
			pu64(b, uint64(v))
		}
	case engine.Float64:
		b.WriteByte(encRawFloat)
		for _, v := range c.Floats[lo:hi] {
			pf64(b, v)
		}
	default:
		b.WriteByte(encDictCode)
		for _, code := range c.Codes[lo:hi] {
			puv(b, uint64(code))
		}
	}
}

func encodeMeta(b *bytes.Buffer, name string, rows int, cols []colMeta) {
	pstr(b, name)
	puv(b, uint64(rows))
	puv(b, uint64(len(cols)))
	for i := range cols {
		cm := &cols[i]
		pstr(b, cm.name)
		b.WriteByte(byte(cm.typ))
		if cm.typ == engine.String {
			puv(b, uint64(len(cm.dict)))
			for _, s := range cm.dict {
				pstr(b, s)
			}
		}
		if cm.typ == engine.Int64 {
			if cm.hasBounds {
				b.WriteByte(1)
				pvarint(b, cm.loBound)
				pvarint(b, cm.hiBound)
			} else {
				b.WriteByte(0)
			}
		}
		nb := len(cm.offs) - 1
		puv(b, uint64(nb))
		// Block index, varint-delta: absolute first offset, then block
		// lengths. nb+1 offsets reconstruct every block's extent.
		if nb >= 0 {
			puv(b, uint64(cm.offs[0]))
			for j := 1; j <= nb; j++ {
				puv(b, uint64(cm.offs[j]-cm.offs[j-1]))
			}
		}
		for j := 0; j < nb; j++ {
			pf64(b, cm.mins[j])
			pf64(b, cm.maxs[j])
		}
	}
}
