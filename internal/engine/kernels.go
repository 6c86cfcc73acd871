package engine

import (
	"context"
	"math"
	"math/bits"
	"strconv"
	"sync/atomic"
)

// This file is the engine's vectorized kernel layer. Instead of walking
// rows one at a time through Ordinal/Float calls and per-row closures,
// query execution proceeds one zone block (4096 rows) at a time:
//
//  1. each block is classified against every range via the zone map
//     (skip / full / straddle, see zonemap.go);
//  2. straddling ranges run a type-specialized compare kernel that
//     stores whole selection words into a 512-byte block scratch;
//  3. the surviving rows feed a type-specialized aggregation kernel —
//     full blocks fuse filter and aggregate with no selection
//     materialized at all, so a single-range SUM on clustered data
//     touches only the measure column.
//
// The one scan driver (scan.go) drives this layer: one block loop over
// [0, n).

// ---------------------------------------------------------------------
// Compare kernels
// ---------------------------------------------------------------------

// cmpRange is one Range compiled against its column, once per query, so
// the per-row test runs in the column's own domain: Float64 keeps the
// float bounds; Int64 values and String ranks are tested against the
// exact integer interval [ilo, ihi] that float64() maps into
// [Lo, Hi], with one unsigned subtract-and-compare,
// uint64(v)-base <= width (base = ilo, width = ihi-ilo).
//
// The obligation is that the compiled test selects exactly the rows
// Lo <= Ordinal(row) && Ordinal(row) <= Hi selects, for every value and
// every bound — beyond ±2^53 where float64(v) rounds, at ±Inf, and with
// NaN or inverted bounds (no cmpRange at all: see compileRange).
// TestCmpKernelsMatchOrdinal and FuzzCmpKernels hold the kernels to it.
type cmpRange struct {
	typ         ColType
	flo, fhi    float64
	base, width uint64
	ranks       []int32 // String: code → rank
}

// compileRange translates r for column c. It builds c's rank table if
// cold, so compiled ranges are read-only afterwards. ok is false when no
// value of the column can match: an empty range has no compiled form
// (the integer test always admits base itself), so the caller answers
// "no rows" without touching a block and never reaches cmp.
func compileRange(c *Column, r Range) (k cmpRange, ok bool) {
	if !(r.Lo <= r.Hi) { // also a NaN bound
		return cmpRange{}, false
	}
	k = cmpRange{typ: c.Type, flo: r.Lo, fhi: r.Hi}
	if c.Type == Float64 {
		return k, true
	}
	if c.Type == String {
		k.ranks = c.ranks()
	}
	// float64() is monotone on int64, so the preimage of [Lo, Hi] is an
	// interval: from the first v with float64(v) >= Lo to the last one
	// before the first v with float64(v) > Hi. Lo <= Hi does not make it
	// non-empty: both bounds can sit above 2^63, below -2^63, or between
	// two neighbouring float64(v).
	ilo, found := firstAtLeast(r.Lo)
	if !found {
		return cmpRange{}, false
	}
	ihi := int64(math.MaxInt64)
	if above, found := firstAbove(r.Hi); found {
		if above <= ilo {
			return cmpRange{}, false
		}
		ihi = above - 1
	}
	k.base, k.width = uint64(ilo), uint64(ihi)-uint64(ilo)
	return k, true
}

// exactInts is 2^53: every integer of magnitude up to it is a float64,
// so float64(v) is exact there and math.Ceil/Floor find the preimage
// bounds directly.
const exactInts = 1 << 53

// firstAtLeast returns the smallest int64 v with float64(v) >= x; ok is
// false when there is none. On (-2^53, 2^53] that is ⌈x⌉, whose
// predecessor is exact and below x. At -2^53 itself it is not:
// -2^53-1 rounds up to -2^53, so bounds outside the exact band (except
// ±Inf) take the bisection.
func firstAtLeast(x float64) (v int64, ok bool) {
	switch {
	case x > -exactInts && x <= exactInts:
		return int64(math.Ceil(x)), true
	case math.IsInf(x, -1):
		return math.MinInt64, true
	case math.IsInf(x, 1):
		return 0, false
	}
	return firstInt64(func(v int64) bool { return float64(v) >= x })
}

// firstAbove returns the smallest int64 v with float64(v) > x; ok is
// false when there is none. On [-2^53, 2^53) that is ⌊x⌋+1, which is
// exact and above x; at 2^53, 2^53+1 rounds down to 2^53, so bounds
// outside the band (except ±Inf) take the bisection.
func firstAbove(x float64) (v int64, ok bool) {
	switch {
	case x >= -exactInts && x < exactInts:
		return int64(math.Floor(x)) + 1, true
	case math.IsInf(x, -1):
		return math.MinInt64, true
	case math.IsInf(x, 1):
		return 0, false
	}
	return firstInt64(func(v int64) bool { return float64(v) > x })
}

// firstInt64 returns the smallest int64 satisfying pred, which must be
// monotone (false up to some point, true from it on); ok is false when
// pred holds nowhere.
func firstInt64(pred func(int64) bool) (v int64, ok bool) {
	lo, hi := int64(math.MinInt64), int64(math.MaxInt64)
	if !pred(hi) {
		return 0, false
	}
	for lo < hi {
		mid := lo + int64((uint64(hi)-uint64(lo))/2) // hi-lo overflows int64
		if pred(mid) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo, true
}

// cmp evaluates the range over the n rows of one block view and writes
// the selection words into out: bit 0 of out[0] is the view's row 0
// (block-local). Bits beyond n stay zero. With and=false the words are
// stored (out's previous contents are ignored); with and=true they are
// intersected into out.
func (k *cmpRange) cmp(v BlockBuf, n int, out []uint64, and bool) {
	switch k.typ {
	case Int64:
		cmpInt64(v.Ints[:n], k.base, k.width, out, and)
	case Float64:
		cmpFloat64(v.Floats[:n], k.flo, k.fhi, out, and)
	default:
		cmpCodes(v.Codes[:n], k.ranks, k.base, k.width, out, and)
	}
}

// The three kernels share one shape, chosen so the inner loop has no
// data-dependent branch (cost per row is flat in selectivity): each row
// yields one bit — the borrow of an unsigned subtract, or a SETcc — that
// is shifted in from the top with constant shifts, so after k rows the
// word's top k bits hold rows 0..k-1 in order and one final shift by
// 64-k (zero for a full word) right-aligns them and clears the tail.

func cmpInt64(vals []int64, base, width uint64, out []uint64, and bool) {
	for wi := 0; len(vals) > 0; wi++ {
		k := min(len(vals), 64)
		var miss uint64
		for _, v := range vals[:k] {
			_, b := bits.Sub64(width, uint64(v)-base, 0) // b = 1 iff v is outside
			miss = miss>>1 | b<<63
		}
		putWord(out, wi, ^miss>>uint(64-k), and)
		vals = vals[k:]
	}
}

func cmpFloat64(vals []float64, lo, hi float64, out []uint64, and bool) {
	for wi := 0; len(vals) > 0; wi++ {
		k := min(len(vals), 64)
		var w uint64
		for _, v := range vals[:k] {
			// Two flag-to-register moves and an AND; `v >= lo && v <= hi`
			// would compile to a branch. A NaN row fails both.
			var ge, le uint64
			if v >= lo {
				ge = 1
			}
			if v <= hi {
				le = 1
			}
			w = w>>1 | (ge&le)<<63
		}
		putWord(out, wi, w>>uint(64-k), and)
		vals = vals[k:]
	}
}

func cmpCodes(codes []int32, ranks []int32, base, width uint64, out []uint64, and bool) {
	for wi := 0; len(codes) > 0; wi++ {
		k := min(len(codes), 64)
		var miss uint64
		for _, code := range codes[:k] {
			_, b := bits.Sub64(width, uint64(int64(ranks[code]))-base, 0)
			miss = miss>>1 | b<<63
		}
		putWord(out, wi, ^miss>>uint(64-k), and)
		codes = codes[k:]
	}
}

func putWord(out []uint64, wi int, w uint64, and bool) {
	if and {
		out[wi] &= w
	} else {
		out[wi] = w
	}
}

// ---------------------------------------------------------------------
// Aggregation kernels
// ---------------------------------------------------------------------

// aggFamily selects which Partial fields a scalar kernel maintains, so
// a SUM never pays for min/max bookkeeping and a COUNT never touches
// column data. Finish reads only the family's fields.
type aggFamily uint8

const (
	// famCount maintains N only (COUNT).
	famCount aggFamily = iota
	// famSum maintains N and Sum (SUM, AVG).
	famSum
	// famVar maintains N, Sum and Sum2 (VAR).
	famVar
	// famMinMax maintains N, Min and Max (MIN, MAX).
	famMinMax
)

func familyOf(f AggFunc) aggFamily {
	switch f {
	case Count:
		return famCount
	case Var:
		return famVar
	case Min, Max:
		return famMinMax
	default:
		return famSum
	}
}

// accView folds the n rows of one block view into st — the fused kernel
// for blocks that passed every range wholesale. Accumulation is in row
// order with a single accumulator, so results stay bit-identical to a
// row-at-a-time loop. The view may be zero only for famCount, which
// never touches column data. ranks is the aggregate column's rank table
// for String columns.
func accView(typ ColType, v BlockBuf, ranks []int32, fam aggFamily, n int, st *Partial) {
	if n <= 0 {
		return
	}
	switch fam {
	case famCount:
		st.N += int64(n)
	case famSum:
		s := st.Sum
		switch typ {
		case Int64:
			for _, x := range v.Ints[:n] {
				s += float64(x)
			}
		case Float64:
			for _, x := range v.Floats[:n] {
				s += x
			}
		default:
			for _, code := range v.Codes[:n] {
				s += float64(ranks[code])
			}
		}
		st.Sum = s
		st.N += int64(n)
	case famVar:
		s, s2 := st.Sum, st.Sum2
		switch typ {
		case Int64:
			for _, val := range v.Ints[:n] {
				x := float64(val)
				s += x
				s2 += x * x
			}
		case Float64:
			for _, x := range v.Floats[:n] {
				s += x
				s2 += x * x
			}
		default:
			for _, code := range v.Codes[:n] {
				x := float64(ranks[code])
				s += x
				s2 += x * x
			}
		}
		st.Sum, st.Sum2 = s, s2
		st.N += int64(n)
	case famMinMax:
		switch typ {
		case Int64:
			for _, x := range v.Ints[:n] {
				st.observe(float64(x))
			}
		case Float64:
			for _, x := range v.Floats[:n] {
				st.observe(x)
			}
		default:
			for _, code := range v.Codes[:n] {
				st.observe(float64(ranks[code]))
			}
		}
	}
}

// accWordsView folds the view rows selected by words (bit 0 of words[0]
// = the view's row 0) into st — the kernel for straddling blocks. The
// view may be zero only for famCount.
func accWordsView(typ ColType, v BlockBuf, ranks []int32, fam aggFamily, words []uint64, st *Partial) {
	switch fam {
	case famCount:
		n := int64(0)
		for _, w := range words {
			n += int64(bits.OnesCount64(w))
		}
		st.N += n
	case famSum:
		s := st.Sum
		n := int64(0)
		switch typ {
		case Int64:
			vals := v.Ints
			for wi, w := range words {
				o := wi << 6
				for w != 0 {
					s += float64(vals[o+bits.TrailingZeros64(w)])
					w &= w - 1
					n++
				}
			}
		case Float64:
			vals := v.Floats
			for wi, w := range words {
				o := wi << 6
				for w != 0 {
					s += vals[o+bits.TrailingZeros64(w)]
					w &= w - 1
					n++
				}
			}
		default:
			codes := v.Codes
			for wi, w := range words {
				o := wi << 6
				for w != 0 {
					s += float64(ranks[codes[o+bits.TrailingZeros64(w)]])
					w &= w - 1
					n++
				}
			}
		}
		st.Sum = s
		st.N += n
	case famVar:
		s, s2 := st.Sum, st.Sum2
		n := int64(0)
		switch typ {
		case Int64:
			vals := v.Ints
			for wi, w := range words {
				o := wi << 6
				for w != 0 {
					x := float64(vals[o+bits.TrailingZeros64(w)])
					s += x
					s2 += x * x
					w &= w - 1
					n++
				}
			}
		case Float64:
			vals := v.Floats
			for wi, w := range words {
				o := wi << 6
				for w != 0 {
					x := vals[o+bits.TrailingZeros64(w)]
					s += x
					s2 += x * x
					w &= w - 1
					n++
				}
			}
		default:
			codes := v.Codes
			for wi, w := range words {
				o := wi << 6
				for w != 0 {
					x := float64(ranks[codes[o+bits.TrailingZeros64(w)]])
					s += x
					s2 += x * x
					w &= w - 1
					n++
				}
			}
		}
		st.Sum, st.Sum2 = s, s2
		st.N += n
	case famMinMax:
		switch typ {
		case Int64:
			vals := v.Ints
			for wi, w := range words {
				o := wi << 6
				for w != 0 {
					st.observe(float64(vals[o+bits.TrailingZeros64(w)]))
					w &= w - 1
				}
			}
		case Float64:
			vals := v.Floats
			for wi, w := range words {
				o := wi << 6
				for w != 0 {
					st.observe(vals[o+bits.TrailingZeros64(w)])
					w &= w - 1
				}
			}
		default:
			codes := v.Codes
			for wi, w := range words {
				o := wi << 6
				for w != 0 {
					st.observe(float64(ranks[codes[o+bits.TrailingZeros64(w)]]))
					w &= w - 1
				}
			}
		}
	}
}

// ---------------------------------------------------------------------
// Block executor
// ---------------------------------------------------------------------

// blockExec drives block-at-a-time evaluation of a conjunction of
// ranges. It is built once per query, resolving columns, zone maps and
// rank tables up front.
type blockExec struct {
	ranges []Range
	cols   []*Column
	zones  []*zoneMap // nil entry: column below the zone threshold
	cmps   []cmpRange // ranges[i] compiled against cols[i]; nil when empty
	// empty: some range can match no row. Table.scan folds nothing and
	// never calls run, which has no compiled ranges to run.
	empty bool
	// stop, when non-nil, is polled once per zone block; a true load
	// aborts the run early (cancellation). It is armed by watch before
	// the run starts; only ctx's AfterFunc callback stores to it.
	stop *atomic.Bool
}

// watch arms the executor's cancellation flag against ctx and returns a
// release function that detaches the watcher. Background-style contexts
// (Done() == nil) cost nothing: no flag is armed and the per-block check
// stays a nil test.
func (e *blockExec) watch(ctx context.Context) func() {
	if ctx.Done() == nil {
		return func() {}
	}
	var flag atomic.Bool
	e.stop = &flag
	stop := context.AfterFunc(ctx, func() { flag.Store(true) })
	return func() { stop() }
}

// newBlockExec resolves the query's range columns, compiles each range
// against its column and warms the derived caches, so the block loop
// only ever reads them.
func (t *Table) newBlockExec(ranges []Range) (*blockExec, error) {
	e := &blockExec{
		ranges: ranges,
		cols:   make([]*Column, len(ranges)),
		zones:  make([]*zoneMap, len(ranges)),
		cmps:   make([]cmpRange, len(ranges)),
	}
	for i, r := range ranges {
		c, err := t.Column(r.Col)
		if err != nil {
			return nil, err
		}
		e.cols[i] = c
		k, ok := compileRange(c, r)
		e.cmps[i] = k
		e.empty = e.empty || !ok
		if c.useZones() {
			e.zones[i] = c.zonesFor()
		}
	}
	if e.empty {
		e.cmps = nil
	}
	return e, nil
}

// run evaluates the ranges over rows [lo, hi) — lo must be a multiple
// of zoneBlockSize — calling full(blo, bhi) for blocks every row of
// which matches, and partial(blo, bhi, words) for blocks with a partial
// selection (words holds the block-local selection, bit 0 of words[0]
// being row blo). Blocks the zone maps prove empty are skipped without
// touching row data — for source-backed columns they are never even
// read from the source. A callback or block-read error aborts the run
// and is returned.
func (e *blockExec) run(lo, hi int, full func(blo, bhi int) error, partial func(blo, bhi int, words []uint64) error) error {
	var scratch [blockWords]uint64
	straddle := make([]int, 0, len(e.ranges))
	var bufs []BlockBuf
	if len(e.ranges) > 0 {
		bufs = make([]BlockBuf, len(e.ranges))
	}
	// Hoist the stop flag: it is armed (or left nil) before run starts
	// and never reassigned mid-run, so the per-block poll stays a
	// register nil-test instead of a field load the callbacks could
	// invalidate.
	stop := e.stop
	for blo := lo; blo < hi; blo += zoneBlockSize {
		if stop != nil && stop.Load() {
			return nil
		}
		bhi := blo + zoneBlockSize
		if bhi > hi {
			bhi = hi
		}
		b := blo / zoneBlockSize
		straddle = straddle[:0]
		skip := false
		for i := range e.ranges {
			cls := blockStraddle
			if z := e.zones[i]; z != nil {
				cls = z.classify(b, e.ranges[i].Lo, e.ranges[i].Hi)
			}
			if cls == blockSkip {
				skip = true
				break
			}
			if cls == blockStraddle {
				straddle = append(straddle, i)
			}
		}
		if skip {
			continue
		}
		if len(straddle) == 0 {
			if err := full(blo, bhi); err != nil {
				return err
			}
			continue
		}
		sw := scratch[:(bhi-blo+63)/64]
		for k, i := range straddle {
			c := e.cols[i]
			v, err := c.view(b, &bufs[i])
			if err != nil {
				return err
			}
			e.cmps[i].cmp(v, bhi-blo, sw, k > 0)
		}
		if err := partial(blo, bhi, sw); err != nil {
			return err
		}
	}
	return nil
}

// scalarOver runs a scalar aggregate over rows [lo, hi) of the
// executor's table. col may be nil only for famCount, which never
// fetches column data — a COUNT over pruned-or-full blocks reads
// nothing from a source-backed measure column.
func scalarOver(e *blockExec, col *Column, fam aggFamily, lo, hi int) (Partial, error) {
	var st Partial
	var buf BlockBuf
	var ranks []int32
	if col != nil && col.Type == String {
		ranks = col.ranks()
	}
	err := e.run(lo, hi,
		func(blo, bhi int) error {
			if fam == famCount {
				st.N += int64(bhi - blo)
				return nil
			}
			v, err := col.view(blo/zoneBlockSize, &buf)
			if err != nil {
				return err
			}
			accView(col.Type, v, ranks, fam, bhi-blo, &st)
			return nil
		},
		func(blo, _ int, words []uint64) error {
			if fam == famCount {
				accWordsView(Int64, BlockBuf{}, nil, fam, words, &st)
				return nil
			}
			v, err := col.view(blo/zoneBlockSize, &buf)
			if err != nil {
				return err
			}
			accWordsView(col.Type, v, ranks, fam, words, &st)
			return nil
		},
	)
	return st, err
}

// ---------------------------------------------------------------------
// Group-by kernels
// ---------------------------------------------------------------------

// maxDirectGroupDomain bounds the ordinal width of a single Int64
// group-by column that still gets a slice-indexed group table; wider
// domains fall back to the string-keyed map.
const maxDirectGroupDomain = 1 << 16

// groupMode selects the group-key strategy.
type groupMode uint8

const (
	// gmCodes: one String group column; slots indexed by dictionary code.
	gmCodes groupMode = iota
	// gmInts: one small-domain Int64 group column; slots indexed by
	// value minus the domain minimum.
	gmInts
	// gmMap: multi-column or wide/float keys; string-keyed map fallback.
	gmMap
)

// groupSlot is one group's accumulator in the direct (slice-indexed)
// modes; seen gates the first-touch bookkeeping.
type groupSlot struct {
	seen bool
	st   Partial
}

type mapSlot struct{ st Partial }

// aggKind tags the aggregate column's access path, hoisted out of the
// per-row loops.
type aggKind uint8

const (
	aggNone  aggKind = iota // COUNT: contribute 0, matching Partial.add(0)
	aggInt                  // Int64 column
	aggFloat                // Float64 column
	aggCode                 // String column: rank of the code
)

// groupSink accumulates per-group aggregates, one sink per GROUP BY
// scan; newGroupSink resolves the key strategy once per query.
// The row loops run block-at-a-time: setBlock fetches the aggregate and
// key columns' views for the current zone block (a subslice for resident
// columns, a cache read for source-backed ones), and addRow indexes them
// block-locally.
type groupSink struct {
	mode groupMode
	fun  AggFunc

	// aggregate access; views fetched per block by setBlock
	kind     aggKind
	aggCol   *Column // nil for COUNT
	aggRanks []int32
	aggView  BlockBuf
	aggBuf   BlockBuf

	// direct modes
	keyCol  *Column // the single group column (gmCodes / gmInts)
	keyView BlockBuf
	keyBuf  BlockBuf
	dict    []string
	base    int64
	slots   []groupSlot
	order   []int32 // first-seen slot indices

	// blockBase is the global row index of the current views' block
	// start, set by setBlock.
	blockBase int

	// map mode
	cols   []*Column
	m      map[string]*mapSlot
	morder []string
}

// newGroupSink resolves the group-by strategy for the query: dictionary
// codes or small-domain ints index a pre-sized slot slice; everything
// else keeps the string-keyed map.
func newGroupSink(t *Table, q Query) (*groupSink, error) {
	g := &groupSink{fun: q.Func, mode: gmMap}
	if q.Func != Count {
		col, err := t.Column(q.Col)
		if err != nil {
			return nil, err
		}
		g.aggCol = col
		switch col.Type {
		case Int64:
			g.kind = aggInt
		case Float64:
			g.kind = aggFloat
		default:
			g.kind, g.aggRanks = aggCode, col.ranks()
		}
	}
	g.cols = make([]*Column, len(q.GroupBy))
	for i, name := range q.GroupBy {
		c, err := t.Column(name)
		if err != nil {
			return nil, err
		}
		g.cols[i] = c
	}
	if len(g.cols) == 1 {
		switch c := g.cols[0]; c.Type {
		case String:
			g.mode = gmCodes
			g.keyCol = c
			g.dict = c.Dict
			g.slots = make([]groupSlot, len(c.Dict))
		case Int64:
			// The domain bounds stay in int64: converting through float
			// ordinals would round values beyond 2^53 and corrupt the
			// slot index base. Source-backed columns answer from their
			// persisted exact bounds, or decline and fall back to the map.
			if mn, mx, ok := c.intBounds(); ok {
				if width := uint64(mx) - uint64(mn); width < maxDirectGroupDomain {
					g.mode = gmInts
					g.keyCol = c
					g.base = mn
					g.slots = make([]groupSlot, int(width)+1)
				}
			}
		}
	}
	if g.mode == gmMap {
		g.m = make(map[string]*mapSlot)
	}
	return g, nil
}

// setBlock fetches the views for zone block b and records its base row.
// The full/partial callbacks always stay within one zone block, so one
// fetch per callback suffices.
func (g *groupSink) setBlock(b int) error {
	if g.aggCol != nil {
		v, err := g.aggCol.view(b, &g.aggBuf)
		if err != nil {
			return err
		}
		g.aggView = v
	}
	if g.keyCol != nil {
		v, err := g.keyCol.view(b, &g.keyBuf)
		if err != nil {
			return err
		}
		g.keyView = v
	}
	g.blockBase = b * zoneBlockSize
	return nil
}

// value returns the aggregate contribution of global row i, read from
// the current block's view (setBlock must cover i).
func (g *groupSink) value(i int) float64 {
	switch g.kind {
	case aggInt:
		return float64(g.aggView.Ints[i-g.blockBase])
	case aggFloat:
		return g.aggView.Floats[i-g.blockBase]
	case aggCode:
		return float64(g.aggRanks[g.aggView.Codes[i-g.blockBase]])
	default:
		return 0
	}
}

// addRow folds global row i into its group; setBlock must cover i. Map
// mode renders keys through the row accessors (StringAt), which read the
// source's block cache for backed columns.
func (g *groupSink) addRow(i int) {
	var s *Partial
	switch g.mode {
	case gmCodes:
		gi := int(g.keyView.Codes[i-g.blockBase])
		sl := &g.slots[gi]
		if !sl.seen {
			sl.seen = true
			g.order = append(g.order, int32(gi))
		}
		s = &sl.st
	case gmInts:
		gi := int(g.keyView.Ints[i-g.blockBase] - g.base)
		sl := &g.slots[gi]
		if !sl.seen {
			sl.seen = true
			g.order = append(g.order, int32(gi))
		}
		s = &sl.st
	default:
		key := groupKey(g.cols, i)
		sl, ok := g.m[key]
		if !ok {
			sl = &mapSlot{}
			g.m[key] = sl
			g.morder = append(g.morder, key)
		}
		s = &sl.st
	}
	s.add(g.value(i))
}

// addRange folds rows [lo, hi) — the full-block sink. [lo, hi) always
// lies within one zone block (run calls it per block).
func (g *groupSink) addRange(lo, hi int) error {
	if err := g.setBlock(lo / zoneBlockSize); err != nil {
		return err
	}
	for i := lo; i < hi; i++ {
		g.addRow(i)
	}
	return nil
}

// addWords folds the rows selected by the block-local words.
func (g *groupSink) addWords(blo, _ int, words []uint64) error {
	if err := g.setBlock(blo / zoneBlockSize); err != nil {
		return err
	}
	for wi, w := range words {
		o := blo + wi<<6
		for w != 0 {
			g.addRow(o + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
	return nil
}

// rows materializes the result in first-seen order, rendering direct-
// mode keys exactly as Column.StringAt would.
func (g *groupSink) rows() ([]GroupRow, error) {
	var out []GroupRow
	switch g.mode {
	case gmMap:
		out = make([]GroupRow, 0, len(g.morder))
		for _, key := range g.morder {
			sl := g.m[key]
			v, err := sl.st.Finish(g.fun)
			if err != nil {
				return nil, err
			}
			out = append(out, GroupRow{Key: key, Value: v, Rows: int(sl.st.N)})
		}
	default:
		out = make([]GroupRow, 0, len(g.order))
		for _, gi := range g.order {
			sl := &g.slots[gi]
			v, err := sl.st.Finish(g.fun)
			if err != nil {
				return nil, err
			}
			out = append(out, GroupRow{Key: g.slotKey(gi), Value: v, Rows: int(sl.st.N)})
		}
	}
	return out, nil
}

// slotKey renders a direct-mode slot index as the group key, exactly as
// Column.StringAt would.
func (g *groupSink) slotKey(gi int32) string {
	if g.mode == gmCodes {
		return g.dict[gi]
	}
	return strconv.FormatInt(g.base+int64(gi), 10)
}
