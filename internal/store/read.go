package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"unsafe"

	"aqppp/internal/engine"
)

// DefaultCacheBytes bounds the decoded-block cache when Options leaves
// CacheBytes zero: 64 MiB, a few thousand resident blocks.
const DefaultCacheBytes = 64 << 20

// Options configures Open.
type Options struct {
	// CacheBytes bounds the decoded-block cache (0 = DefaultCacheBytes).
	CacheBytes int64
}

// colMeta is one column's resident metadata: schema, dictionary, exact
// integer bounds, block index and zone summaries. Everything the engine
// consults at plan time lives here; block payloads stay on disk.
type colMeta struct {
	name string
	typ  engine.ColType
	dict []string

	hasBounds        bool
	loBound, hiBound int64

	// offs[b] is the file offset of block b's payload; offs[nb] closes
	// the last block, so block b spans [offs[b], offs[b+1]).
	offs []int64
	// mins/maxs are the per-block zone summaries, in ordinal space.
	mins, maxs []float64
}

// Store is an open container. It implements engine.Backend; Table()
// returns the lazily-faulting table bound over it.
type Store struct {
	path     string
	fileSize int64
	f        *os.File

	name  string
	rows  int
	cols  []colMeta
	srcs  []*colSource
	tbl   *engine.Table
	preps []Prep
	cache *blockCache
}

// Open opens the container at path, verifies its checksums,
// parses the metadata and prep sections, and binds an engine table over
// it. No data blocks are read: opening is metadata-sized work, and the
// first scan faults only the blocks its zone maps cannot prune.
func Open(path string, opts Options) (*Store, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	s, err := openFile(f, path, opts)
	if err != nil {
		_ = f.Close()
		return nil, err
	}
	return s, nil
}

func openFile(f *os.File, path string, opts Options) (*Store, error) {
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := fi.Size()
	if size < headerSize+footerSize {
		return nil, corruptf("%d bytes is smaller than header+footer", size)
	}
	cacheBytes := opts.CacheBytes
	if cacheBytes <= 0 {
		cacheBytes = DefaultCacheBytes
	}
	s := &Store{path: path, f: f, fileSize: size, cache: newBlockCache(cacheBytes)}

	var hdr [headerSize]byte
	if err := s.readAt(hdr[:], 0); err != nil {
		return nil, err
	}
	if [4]byte(hdr[:4]) != storeMagic {
		return nil, corruptf("bad magic %q", hdr[:4])
	}
	if v := binary.LittleEndian.Uint32(hdr[4:8]); v != formatVersion {
		return nil, fmt.Errorf("store: unsupported format version %d", v)
	}

	var ftr [footerSize]byte
	if err := s.readAt(ftr[:], size-footerSize); err != nil {
		return nil, err
	}
	if [4]byte(ftr[44:48]) != storeMagic {
		return nil, corruptf("truncated footer (bad trailing magic %q)", ftr[44:48])
	}
	if got, want := checksum(ftr[:40]), binary.LittleEndian.Uint32(ftr[40:44]); got != want {
		return nil, corruptf("footer checksum %08x, want %08x", got, want)
	}
	metaOff := int64(binary.LittleEndian.Uint64(ftr[0:8]))
	metaLen := int64(binary.LittleEndian.Uint64(ftr[8:16]))
	metaCRC := binary.LittleEndian.Uint32(ftr[16:20])
	prepOff := int64(binary.LittleEndian.Uint64(ftr[20:28]))
	prepLen := int64(binary.LittleEndian.Uint64(ftr[28:36]))
	prepCRC := binary.LittleEndian.Uint32(ftr[36:40])
	limit := size - footerSize
	if metaOff < headerSize || metaLen < 0 || metaOff+metaLen > limit {
		return nil, corruptf("meta section [%d, %d) out of bounds", metaOff, metaOff+metaLen)
	}
	if prepOff < headerSize || prepLen < 0 || prepOff+prepLen > limit {
		return nil, corruptf("prep section [%d, %d) out of bounds", prepOff, prepOff+prepLen)
	}

	meta := make([]byte, metaLen)
	if err := s.readAt(meta, metaOff); err != nil {
		return nil, err
	}
	if got := checksum(meta); got != metaCRC {
		return nil, corruptf("meta checksum %08x, want %08x", got, metaCRC)
	}
	if err := s.parseMeta(meta, metaOff); err != nil {
		return nil, err
	}

	prep := make([]byte, prepLen)
	if err := s.readAt(prep, prepOff); err != nil {
		return nil, err
	}
	if got := checksum(prep); got != prepCRC {
		return nil, corruptf("prep checksum %08x, want %08x", got, prepCRC)
	}
	s.srcs = make([]*colSource, len(s.cols))
	for i := range s.srcs {
		s.srcs[i] = &colSource{s: s, ci: i}
	}
	if s.tbl, err = engine.OpenBackend(s); err != nil {
		return nil, err
	}
	if s.preps, err = decodePreps(prep, s.tbl); err != nil {
		return nil, err
	}
	return s, nil
}

// parseMeta decodes the meta section and cross-checks the block index
// against the row count and the data region [headerSize, metaOff).
func (s *Store) parseMeta(meta []byte, metaOff int64) error {
	r := &byteReader{data: meta}
	var err error
	if s.name, err = r.str(); err != nil {
		return err
	}
	rows, err := r.uvarint()
	if err != nil {
		return err
	}
	// Every column indexes each block in at least blockIndexBytes, so a
	// row count the rest of the section cannot index is corrupt — and
	// refusing it here keeps it from sizing the index below.
	if rows/blockRows > uint64(r.remaining()/blockIndexBytes) {
		return corruptf("%d rows need more blocks than the %d-byte meta section indexes", rows, len(meta))
	}
	s.rows = int(rows)
	ncols, err := r.count(minColumnBytes)
	if err != nil {
		return err
	}
	wantNB := (s.rows + blockRows - 1) / blockRows
	s.cols = make([]colMeta, ncols)
	for i := range s.cols {
		cm := &s.cols[i]
		if cm.name, err = r.str(); err != nil {
			return err
		}
		tb, err := r.byteVal()
		if err != nil {
			return err
		}
		cm.typ = engine.ColType(tb)
		switch cm.typ {
		case engine.Int64, engine.Float64, engine.String:
		default:
			return corruptf("column %q has unknown type byte %d", cm.name, tb)
		}
		if cm.typ == engine.String {
			if cm.dict, err = r.strs(); err != nil {
				return err
			}
		}
		if cm.typ == engine.Int64 {
			flag, err := r.byteVal()
			if err != nil {
				return err
			}
			if flag != 0 {
				cm.hasBounds = true
				if cm.loBound, err = r.varint(); err != nil {
					return err
				}
				if cm.hiBound, err = r.varint(); err != nil {
					return err
				}
			}
		}
		nb, err := r.count(blockIndexBytes)
		if err != nil {
			return err
		}
		if nb != wantNB {
			return corruptf("column %q has %d blocks in its index but %d rows imply %d",
				cm.name, nb, s.rows, wantNB)
		}
		cm.offs = make([]int64, nb+1)
		first, err := r.uvarint()
		if err != nil {
			return err
		}
		cm.offs[0] = int64(first)
		for j := 1; j <= nb; j++ {
			d, err := r.uvarint()
			if err != nil {
				return err
			}
			cm.offs[j] = cm.offs[j-1] + int64(d)
		}
		if nb > 0 && (cm.offs[0] < headerSize || cm.offs[nb] > metaOff) {
			return corruptf("column %q block index [%d, %d) escapes the data region [%d, %d)",
				cm.name, cm.offs[0], cm.offs[nb], headerSize, metaOff)
		}
		cm.mins = make([]float64, nb)
		cm.maxs = make([]float64, nb)
		for j := 0; j < nb; j++ {
			if cm.mins[j], err = r.f64(); err != nil {
				return err
			}
			if cm.maxs[j], err = r.f64(); err != nil {
				return err
			}
		}
	}
	if r.remaining() != 0 {
		return corruptf("%d trailing bytes after meta", r.remaining())
	}
	return nil
}

// readAt fills dst from absolute file offset off with one pread; it is
// the store's only way to file bytes. No lock is needed against Close:
// *os.File keeps the descriptor alive for reads already in flight and
// fails a read that starts after Close with os.ErrClosed, which maps to
// ErrClosed. A file truncated under the store reads short: a
// corrupt-file error, never a fault that kills the process.
func (s *Store) readAt(dst []byte, off int64) error {
	_, err := s.f.ReadAt(dst, off)
	switch {
	case err == nil:
		return nil
	case errors.Is(err, os.ErrClosed):
		return ErrClosed
	case err == io.EOF:
		return corruptf("read [%d, %d) runs past the end of the file", off, off+int64(len(dst)))
	}
	return err
}

// readRaw preads a raw block's payload — plen bytes at off, nrows
// little-endian 8-byte words — straight into a fresh []T viewed as
// bytes, so the block lands in the array the cache keeps with no copy
// and no scratch buffer. A big-endian host swaps each word in place.
// The array is exactly nrows words: reading the encoding byte into one
// extra word would save a pread but round a full block's 32 KiB up to
// a 40 KiB span, so the cache's byte budget would understate what it
// holds by a quarter.
func readRaw[T int64 | float64](s *Store, nrows int, off, plen int64) ([]T, error) {
	if plen != int64(nrows)*8 {
		return nil, corruptf("%d payload bytes for %d raw words", plen, nrows)
	}
	dst := make([]T, nrows)
	b := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(dst))), 8*nrows)
	if err := s.readAt(b, off); err != nil {
		return nil, err
	}
	if !hostLittleEndian {
		for i := 0; i < len(b); i += 8 {
			binary.NativeEndian.PutUint64(b[i:], binary.LittleEndian.Uint64(b[i:]))
		}
	}
	return dst, nil
}

// hostLittleEndian decides once whether the file's little-endian words
// are already in host order.
var hostLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// Close releases the file handle; calling it again is a no-op. Decoded
// blocks already in the cache stay valid (they own their slices);
// subsequent cache misses fail with ErrClosed.
func (s *Store) Close() error {
	if err := s.f.Close(); err != nil && !errors.Is(err, os.ErrClosed) {
		return err
	}
	return nil
}

// Table returns the engine table bound over this store. Scans fault
// blocks through the cache; zone-pruned blocks are never read.
func (s *Store) Table() *engine.Table { return s.tbl }

// Preps returns the prepared handles persisted in the container.
func (s *Store) Preps() []Prep { return s.preps }

// Path returns the file the store was opened from.
func (s *Store) Path() string { return s.path }

// CacheStats returns the block cache counters.
func (s *Store) CacheStats() CacheStats { return s.cache.stats() }

// Snapshot summarizes the store for observability surfaces (/statusz).
func (s *Store) Snapshot() Snapshot {
	names := make([]string, len(s.preps))
	for i := range s.preps {
		names[i] = s.preps[i].Name
	}
	return Snapshot{
		Path:      s.path,
		Table:     s.name,
		Rows:      s.rows,
		Cols:      len(s.cols),
		Blocks:    (s.rows + blockRows - 1) / blockRows,
		FileBytes: s.fileSize,
		Preps:     names,
		Cache:     s.CacheStats(),
	}
}

// Snapshot is a point-in-time description of one open store. Mmap is
// always false (stores read with pread); it stays so the /statusz JSON
// shape holds.
type Snapshot struct {
	Path      string     `json:"path"`
	Table     string     `json:"table"`
	Rows      int        `json:"rows"`
	Cols      int        `json:"cols"`
	Blocks    int        `json:"blocks"`
	FileBytes int64      `json:"file_bytes"`
	Mmap      bool       `json:"mmap"`
	Preps     []string   `json:"preps,omitempty"`
	Cache     CacheStats `json:"cache"`
}

// --- engine.Backend ----------------------------------------------------

// TableName implements engine.Backend.
func (s *Store) TableName() string { return s.name }

// NumRows implements engine.Backend.
func (s *Store) NumRows() int { return s.rows }

// Schema implements engine.Backend.
func (s *Store) Schema() engine.Schema {
	sch := engine.Schema{
		Names: make([]string, len(s.cols)),
		Types: make([]engine.ColType, len(s.cols)),
	}
	for i := range s.cols {
		sch.Names[i] = s.cols[i].name
		sch.Types[i] = s.cols[i].typ
	}
	return sch
}

// Dict implements engine.Backend.
func (s *Store) Dict(col int) []string { return s.cols[col].dict }

// Source implements engine.Backend.
func (s *Store) Source(col int) engine.ColumnSource { return s.srcs[col] }

// colSource serves one column's blocks through the store's shared cache.
type colSource struct {
	s  *Store
	ci int
}

// ReadBlock implements engine.ColumnSource. Cached blocks are returned
// as shared immutable views (the caller's buf is ignored); a miss reads
// into fresh slices that become the cache entry.
func (cs *colSource) ReadBlock(b int, _ *engine.BlockBuf) (engine.BlockBuf, error) {
	key := uint64(cs.ci)<<32 | uint64(uint32(b))
	if v, ok := cs.s.cache.get(key); ok {
		return v, nil
	}
	v, size, err := cs.s.decodeBlock(cs.ci, b)
	if err != nil {
		return engine.BlockBuf{}, err
	}
	return cs.s.cache.put(key, v, size), nil
}

// BlockZones implements engine.ColumnSource: the summaries persisted at
// write time, resident since Open.
func (cs *colSource) BlockZones() (mins, maxs []float64) {
	cm := &cs.s.cols[cs.ci]
	return cm.mins, cm.maxs
}

// IntBounds implements engine.IntBoundsSource for Int64 columns, giving
// the group-by planner exact bounds without a scan.
func (cs *colSource) IntBounds() (lo, hi int64, ok bool) {
	cm := &cs.s.cols[cs.ci]
	return cm.loBound, cm.hiBound, cm.hasBounds
}

// decodeBlock reads block b of column ci into fresh slices (they become
// shared cache views, so no buffer reuse).
func (s *Store) decodeBlock(ci, b int) (engine.BlockBuf, int64, error) {
	cm := &s.cols[ci]
	if b < 0 || b+1 >= len(cm.offs) {
		return engine.BlockBuf{}, 0, fmt.Errorf("store: column %q has no block %d", cm.name, b)
	}
	lo := b * blockRows
	hi := lo + blockRows
	if hi > s.rows {
		hi = s.rows
	}
	nrows := hi - lo
	off, blen := cm.offs[b], cm.offs[b+1]-cm.offs[b]
	if blen <= 0 {
		return engine.BlockBuf{}, 0, corruptf("column %q block %d has length %d", cm.name, b, blen)
	}
	buf, err := s.readBlock(cm, nrows, off, blen)
	if err != nil {
		return engine.BlockBuf{}, 0, fmt.Errorf("store: column %q block %d: %w", cm.name, b, err)
	}
	return buf, int64(nrows)*8 + cacheEntryOverhead, nil
}

// readBlock reads the nrows-row block at [off, off+blen). The encoding
// byte is read on its own and alone decides the path — a varint-delta
// block can be exactly as long as a raw one. A raw payload is pread
// straight into the array the cache keeps; varint-delta and dictionary
// blocks (a few KB) are read whole, then decoded.
func (s *Store) readBlock(cm *colMeta, nrows int, off, blen int64) (engine.BlockBuf, error) {
	var enc [1]byte
	if err := s.readAt(enc[:], off); err != nil {
		return engine.BlockBuf{}, err
	}
	off, plen := off+1, blen-1
	var buf engine.BlockBuf
	var err error
	switch {
	case cm.typ == engine.Int64 && enc[0] == encRawInt:
		buf.Ints, err = readRaw[int64](s, nrows, off, plen)
		return buf, err
	case cm.typ == engine.Float64 && enc[0] == encRawFloat:
		buf.Floats, err = readRaw[float64](s, nrows, off, plen)
		return buf, err
	case cm.typ == engine.Int64 && enc[0] == encDeltaInt,
		cm.typ == engine.String && enc[0] == encDictCode:
		// read whole and decoded below
	default:
		return buf, corruptf("encoding %d for %v column", enc[0], cm.typ)
	}
	payload := make([]byte, plen)
	if err := s.readAt(payload, off); err != nil {
		return buf, err
	}
	r := &byteReader{data: payload}
	if cm.typ == engine.Int64 {
		vals := make([]int64, nrows)
		v, err := r.varint()
		if err != nil {
			return buf, err
		}
		vals[0] = v
		for i := 1; i < nrows; i++ {
			d, err := r.uvarint()
			if err != nil {
				return buf, err
			}
			vals[i] = int64(uint64(vals[i-1]) + d)
		}
		if r.remaining() != 0 {
			return buf, corruptf("%d trailing bytes", r.remaining())
		}
		buf.Ints = vals
	} else {
		codes := make([]int32, nrows)
		for i := range codes {
			v, err := r.uvarint()
			if err != nil {
				return buf, err
			}
			if v >= uint64(len(cm.dict)) {
				return buf, corruptf("code %d outside dictionary of %d", v, len(cm.dict))
			}
			codes[i] = int32(v)
		}
		if r.remaining() != 0 {
			return buf, corruptf("%d trailing bytes", r.remaining())
		}
		buf.Codes = codes
	}
	return buf, nil
}
