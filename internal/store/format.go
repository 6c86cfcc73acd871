// Package store is the engine's disk-native columnar storage: a
// block-structured single-file container that serves scans through
// engine.Backend without materializing the table in memory.
//
// File layout (all integers little-endian):
//
//	┌────────────────────────────────────────────────────────┐
//	│ header   magic "AQPS" (4 B) + format version u32 (4 B) │
//	├────────────────────────────────────────────────────────┤
//	│ data     per column, per zone block (4096 rows):       │
//	│          1 encoding byte + encoded values              │
//	├────────────────────────────────────────────────────────┤
//	│ meta     schema, dictionaries, exact int64 bounds,     │
//	│          varint-delta block index, per-block zone      │
//	│          min/max summaries            (CRC32-checked)  │
//	├────────────────────────────────────────────────────────┤
//	│ prep     prepared handles: samples, BP-cubes, min/max  │
//	│          indexes (store-owned AQPT/AQPC/AQPM streams), │
//	│          confidence                   (CRC32-checked)  │
//	├────────────────────────────────────────────────────────┤
//	│ footer   48 B fixed: meta/prep extents + CRCs,         │
//	│          footer CRC, trailing magic                    │
//	└────────────────────────────────────────────────────────┘
//
// Blocks align to the engine's 4096-row zone blocks, so the zone
// summaries persisted here feed skip/full/straddle classification
// directly: a pruned block is never read from disk. Per-block encodings
// are chosen independently — varint-delta for non-decreasing int runs
// (clustered keys), dictionary codes as uvarints for strings, raw
// little-endian words otherwise. The prep section's embedded streams
// are this package's too (prep.go): no other package encodes any part
// of a container.
package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
)

// storeMagic brackets the file: it opens the header and closes the
// footer, so truncation at either end is detected before any parsing.
var storeMagic = [4]byte{'A', 'Q', 'P', 'S'}

const (
	formatVersion = 1

	// headerSize is magic + version.
	headerSize = 8

	// footerSize is the fixed trailer: metaOff, metaLen (u64), metaCRC
	// (u32), prepOff, prepLen (u64), prepCRC (u32), footerCRC (u32),
	// magic (4 B).
	footerSize = 8 + 8 + 4 + 8 + 8 + 4 + 4 + 4

	// blockRows mirrors the engine's zone block size; the formats are
	// coupled by design (one data block = one zone block).
	blockRows = 4096

	// Lower bounds on the meta bytes one element takes, for byteReader.count:
	// a column is at least a name length, a type byte, a block count and a
	// first offset; a block-index entry at least a one-byte length plus
	// its f64 zone min and max.
	minColumnBytes  = 4
	blockIndexBytes = 1 + 16
)

// Block encodings, stored as the first byte of each block's payload.
const (
	encRawInt   = 0 // 8-byte little-endian words
	encDeltaInt = 1 // zigzag varint first value, uvarint deltas (non-decreasing runs)
	encRawFloat = 2 // 8-byte little-endian IEEE-754 bits
	encDictCode = 3 // uvarint dictionary codes
)

func checksum(b []byte) uint32 { return crc32.ChecksumIEEE(b) }

// ErrClosed is returned by block reads after Close.
var ErrClosed = errors.New("store: closed")

// corruptf wraps format-level failures so callers (and tests) can
// distinguish a corrupt file from an I/O error.
func corruptf(format string, args ...any) error {
	return fmt.Errorf("store: corrupt file: "+format, args...)
}

// --- buffer-level encoding helpers -------------------------------------

func puv(b *bytes.Buffer, v uint64) {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	b.Write(tmp[:n])
}

func pvarint(b *bytes.Buffer, v int64) {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutVarint(tmp[:], v)
	b.Write(tmp[:n])
}

func pstr(b *bytes.Buffer, s string) {
	puv(b, uint64(len(s)))
	b.WriteString(s)
}

func pu64(b *bytes.Buffer, v uint64) {
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], v)
	b.Write(tmp[:])
}

func pf64(b *bytes.Buffer, f float64) { pu64(b, math.Float64bits(f)) }

// byteReader parses a checksummed section held fully in memory. Every
// accessor reports truncation as a corruption error rather than panicking.
type byteReader struct {
	data []byte
	pos  int
}

func (r *byteReader) remaining() int { return len(r.data) - r.pos }

func (r *byteReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.data[r.pos:])
	if n <= 0 {
		return 0, corruptf("truncated uvarint at offset %d", r.pos)
	}
	r.pos += n
	return v, nil
}

func (r *byteReader) varint() (int64, error) {
	v, n := binary.Varint(r.data[r.pos:])
	if n <= 0 {
		return 0, corruptf("truncated varint at offset %d", r.pos)
	}
	r.pos += n
	return v, nil
}

// count reads an element count and refuses one larger than the
// remaining bytes could hold at minBytesEach per element, so a corrupt
// count — even in a CRC-valid section — fails here instead of sizing an
// allocation the runtime cannot satisfy.
func (r *byteReader) count(minBytesEach int) (int, error) {
	at := r.pos
	n, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if n > uint64(r.remaining()/minBytesEach) {
		return 0, corruptf("count %d at offset %d exceeds what %d remaining bytes hold at %d bytes each",
			n, at, r.remaining(), minBytesEach)
	}
	return int(n), nil
}

func (r *byteReader) bytes(n int) ([]byte, error) {
	if n < 0 || r.remaining() < n {
		return nil, corruptf("truncated section: need %d bytes, have %d", n, r.remaining())
	}
	b := r.data[r.pos : r.pos+n]
	r.pos += n
	return b, nil
}

func (r *byteReader) str() (string, error) {
	n, err := r.uvarint()
	if err != nil {
		return "", err
	}
	if n > 1<<24 {
		return "", corruptf("string length %d too large", n)
	}
	b, err := r.bytes(int(n))
	return string(b), err
}

// strs reads a count, then that many strings.
func (r *byteReader) strs() ([]string, error) {
	n, err := r.count(1) // a length byte per string
	if err != nil {
		return nil, err
	}
	out := make([]string, n)
	for i := range out {
		if out[i], err = r.str(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (r *byteReader) byteVal() (byte, error) {
	b, err := r.bytes(1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

func (r *byteReader) f64() (float64, error) {
	b, err := r.bytes(8)
	if err != nil {
		return 0, err
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b)), nil
}

// f64s reads n floats in one bounds check, converting them straight
// from the section; n = 0 yields nil.
func (r *byteReader) f64s(n int) ([]float64, error) {
	b, err := r.bytes(8 * n)
	if err != nil || n == 0 {
		return nil, err
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out, nil
}
