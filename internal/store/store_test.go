package store

import (
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"aqppp/internal/cube"
	"aqppp/internal/engine"
	"aqppp/internal/sample"
	"aqppp/internal/stats"
)

// testTable builds a table exercising every column type and both int
// encodings: "key" is clustered (non-decreasing → varint-delta blocks),
// "rnd" is shuffled with negatives (raw blocks), "val" is float with
// negatives and exact-binary values, "cat" is a small dictionary.
func testTable(t testing.TB, name string, n int, seed uint64) *engine.Table {
	t.Helper()
	r := stats.NewRNG(seed)
	keys := make([]int64, n)
	rnds := make([]int64, n)
	vals := make([]float64, n)
	cats := make([]string, n)
	pool := []string{"north", "south", "east", "west", "delta"}
	for i := 0; i < n; i++ {
		keys[i] = int64(i / 3)
		rnds[i] = int64(r.Intn(2_000_000)) - 1_000_000
		vals[i] = r.Float64()*1000 - 500
		cats[i] = pool[r.Intn(len(pool))]
	}
	return engine.MustNewTable(name,
		engine.NewIntColumn("key", keys),
		engine.NewIntColumn("rnd", rnds),
		engine.NewFloatColumn("val", vals),
		engine.NewStringColumn("cat", cats),
	)
}

func writeTemp(t testing.TB, tbl *engine.Table, preps []Prep) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), tbl.Name+".aqps")
	if err := Write(path, tbl, preps); err != nil {
		t.Fatal(err)
	}
	return path
}

func openTemp(t *testing.T, path string, opts Options) *Store {
	t.Helper()
	s, err := Open(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// equivalenceQueries is the query battery every disk-vs-memory test runs:
// scalar aggregates, filters on every column type, group-by.
func equivalenceQueries() []engine.Query {
	return []engine.Query{
		{Func: engine.Count},
		{Func: engine.Sum, Col: "val"},
		{Func: engine.Sum, Col: "rnd"},
		{Func: engine.Avg, Col: "val", Ranges: []engine.Range{{Col: "key", Lo: 10, Hi: 800}}},
		{Func: engine.Var, Col: "val", Ranges: []engine.Range{{Col: "rnd", Lo: -500000, Hi: 500000}}},
		{Func: engine.Min, Col: "val", Ranges: []engine.Range{{Col: "cat", Lo: 1, Hi: 3}}},
		{Func: engine.Max, Col: "rnd", Ranges: []engine.Range{{Col: "key", Lo: 0, Hi: 1e9}}},
		{Func: engine.Sum, Col: "val", GroupBy: []string{"cat"}},
		{Func: engine.Count, GroupBy: []string{"cat"}, Ranges: []engine.Range{{Col: "key", Lo: 100, Hi: 400}}},
	}
}

// assertTableEquivalent runs the query battery plus row accessors against
// the backed table and requires bit-identical answers to the resident one.
func assertTableEquivalent(t *testing.T, resident, backed *engine.Table) {
	t.Helper()
	if got, want := backed.NumRows(), resident.NumRows(); got != want {
		t.Fatalf("NumRows = %d, want %d", got, want)
	}
	for _, q := range equivalenceQueries() {
		want, err := resident.Execute(context.Background(), q)
		if err != nil {
			t.Fatalf("%+v (resident): %v", q, err)
		}
		got, err := backed.Execute(context.Background(), q)
		if err != nil {
			t.Fatalf("%+v (backed): %v", q, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%+v: backed %+v != resident %+v", q, got, want)
		}
	}
	n := resident.NumRows()
	rows := []int{0, 1, n / 2, n - 1, blockRows - 1, blockRows}
	for _, row := range rows {
		if row < 0 || row >= n {
			continue
		}
		for _, c := range resident.Columns {
			if g, w := backed.MustColumn(c.Name).StringAt(row), c.StringAt(row); g != w {
				t.Fatalf("StringAt(%s, %d) = %q, want %q", c.Name, row, g, w)
			}
		}
	}
}

// TestRoundTrip pins write→open equivalence across row counts that hit
// the block-boundary edge cases: single row, one partial block, exactly
// one block, one full + one partial, and a multi-block table.
func TestRoundTrip(t *testing.T) {
	for _, n := range []int{1, 100, blockRows, blockRows + 1, 3*blockRows + 57} {
		tbl := testTable(t, "rt", n, uint64(n))
		s := openTemp(t, writeTemp(t, tbl, nil), Options{})
		if !s.Table().Backed() {
			t.Fatal("store table not marked backed")
		}
		assertTableEquivalent(t, tbl, s.Table())
		if s.Table().Name != "rt" || s.NumRows() != n {
			t.Errorf("n=%d: name=%q rows=%d", n, s.Table().Name, s.NumRows())
		}
	}
}

// TestRoundTripRandomized is the fuzz-ish leg: random tables (random
// sizes, value ranges, dictionary widths), the full query battery each.
func TestRoundTripRandomized(t *testing.T) {
	r := stats.NewRNG(99)
	for trial := 0; trial < 5; trial++ {
		n := 1 + r.Intn(3*blockRows)
		tbl := testTable(t, "rnd", n, r.Uint64())
		s := openTemp(t, writeTemp(t, tbl, nil), Options{})
		assertTableEquivalent(t, tbl, s.Table())
		s.Close()
	}
}

// TestIntBoundsAndZones pins the metadata the planner consults without
// touching data: exact integer bounds and per-block zone summaries.
func TestIntBoundsAndZones(t *testing.T) {
	n := 2*blockRows + 10
	tbl := testTable(t, "zb", n, 3)
	s := openTemp(t, writeTemp(t, tbl, nil), Options{})
	lo, hi, ok := s.srcs[0].IntBounds()
	if !ok || lo != 0 || hi != int64((n-1)/3) {
		t.Errorf("key bounds = [%d, %d] ok=%v, want [0, %d]", lo, hi, ok, (n-1)/3)
	}
	mins, maxs := s.srcs[0].BlockZones()
	nb := (n + blockRows - 1) / blockRows
	if len(mins) != nb || len(maxs) != nb {
		t.Fatalf("zones = %d/%d blocks, want %d", len(mins), len(maxs), nb)
	}
	// key = row/3 is clustered, so block zones are tight and disjoint-ish.
	if mins[0] != 0 || maxs[0] != float64((blockRows-1)/3) {
		t.Errorf("block 0 zone = [%g, %g]", mins[0], maxs[0])
	}
	if s.CacheStats().Misses != 0 {
		t.Errorf("metadata queries faulted %d blocks; should be resident-only", s.CacheStats().Misses)
	}
}

// TestPruningViaCache asserts the acceptance criterion at the store
// layer: a narrow range over the clustered key faults only the blocks the
// zone maps cannot prune — pruned blocks are never read from disk.
func TestPruningViaCache(t *testing.T) {
	n := 8 * blockRows
	tbl := testTable(t, "pr", n, 4)
	s := openTemp(t, writeTemp(t, tbl, nil), Options{})
	if got := s.CacheStats().Misses; got != 0 {
		t.Fatalf("open faulted %d blocks; open must be metadata-only", got)
	}
	// key = row/3: keys [0, 1355] live entirely in block 0.
	q := engine.Query{Func: engine.Sum, Col: "val",
		Ranges: []engine.Range{{Col: "key", Lo: 0, Hi: float64(blockRows/3 - 10)}}}
	want, err := tbl.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Table().Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.ExactEqual(got.Value, want.Value) {
		t.Fatalf("value = %g, want %g", got.Value, want.Value)
	}
	// One key block to filter + one val block to aggregate.
	if misses := s.CacheStats().Misses; misses > 2 {
		t.Errorf("narrow scan faulted %d blocks of %d; pruning failed", misses, 2*(n/blockRows))
	}
	// The same scan again is all cache hits: zero new disk reads.
	before := s.CacheStats().Misses
	if _, err := s.Table().Execute(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	after := s.CacheStats()
	if after.Misses != before {
		t.Errorf("repeat scan faulted %d new blocks, want 0", after.Misses-before)
	}
	if after.Hits == 0 {
		t.Error("repeat scan recorded no cache hits")
	}
}

// TestCacheEviction bounds the cache below the working set and checks
// the LRU actually evicts: resident stays under cap, evictions counted,
// and everything still answers correctly.
func TestCacheEviction(t *testing.T) {
	n := 6 * blockRows
	tbl := testTable(t, "ev", n, 5)
	// ~3 blocks of budget against a 24-block working set (4 cols × 6).
	capBytes := int64(3 * (blockRows*8 + cacheEntryOverhead))
	s := openTemp(t, writeTemp(t, tbl, nil), Options{CacheBytes: capBytes})
	q := engine.Query{Func: engine.Sum, Col: "val", Ranges: []engine.Range{{Col: "rnd", Lo: -2e6, Hi: 2e6}}}
	want, _ := tbl.Execute(context.Background(), q)
	for i := 0; i < 3; i++ {
		got, err := s.Table().Execute(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if !stats.ExactEqual(got.Value, want.Value) {
			t.Fatalf("pass %d: value = %g, want %g", i, got.Value, want.Value)
		}
	}
	cs := s.CacheStats()
	if cs.Evictions == 0 {
		t.Error("working set over cap evicted nothing")
	}
	if cs.ResidentBytes > cs.CapBytes {
		t.Errorf("resident %d bytes exceeds cap %d", cs.ResidentBytes, cs.CapBytes)
	}
	if cs.CapBytes != capBytes {
		t.Errorf("cap = %d, want %d", cs.CapBytes, capBytes)
	}
}

// TestBitExactLanding pins the raw path that preads a payload straight
// into the cached array: float blocks holding NaN payloads, -0, ±Inf and
// subnormals, and int blocks holding MinInt64/MaxInt64, come back bit
// for bit — including the short tail block.
func TestBitExactLanding(t *testing.T) {
	n := blockRows + 13
	specials := []float64{
		math.Float64frombits(0x7ff8000000000001), // quiet NaN, payload 1
		math.Float64frombits(0xfff0000000000001), // signalling NaN, sign set
		math.Float64frombits(0x7ff4000000c0ffee),
		math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, math.Float64frombits(0x800fffffffffffff), // subnormals
	}
	ints := []int64{math.MinInt64, math.MaxInt64, -1, 0, math.MinInt64 + 1, math.MaxInt64 - 1}
	fs := make([]float64, n)
	is := make([]int64, n)
	for i := range fs {
		fs[i] = specials[i%len(specials)]
		is[i] = ints[i%len(ints)] // unsorted: every block stays raw
	}
	// The tail block (13 rows) starts at a different phase of both cycles.
	tbl := engine.MustNewTable("bits", engine.NewFloatColumn("f", fs), engine.NewIntColumn("i", is))
	s := openTemp(t, writeTemp(t, tbl, nil), Options{})
	for b := 0; b*blockRows < n; b++ {
		fb, err := s.srcs[0].ReadBlock(b, nil)
		if err != nil {
			t.Fatal(err)
		}
		ib, err := s.srcs[1].ReadBlock(b, nil)
		if err != nil {
			t.Fatal(err)
		}
		lo := b * blockRows
		if len(fb.Floats) != min(blockRows, n-lo) || len(ib.Ints) != len(fb.Floats) {
			t.Fatalf("block %d: %d floats, %d ints", b, len(fb.Floats), len(ib.Ints))
		}
		for i, v := range fb.Floats {
			if got, want := math.Float64bits(v), math.Float64bits(fs[lo+i]); got != want {
				t.Fatalf("row %d: float bits %016x, want %016x", lo+i, got, want)
			}
		}
		for i, v := range ib.Ints {
			if v != is[lo+i] {
				t.Fatalf("row %d: int %d, want %d", lo+i, v, is[lo+i])
			}
		}
	}
}

// TestDeltaBlockAsLongAsRaw pins that the encoding byte, not the block
// length, picks the decode path: a varint-delta int block whose deltas
// are 8 bytes each is exactly 1+8·nrows bytes long, the length of a raw
// block, and must still decode as deltas.
func TestDeltaBlockAsLongAsRaw(t *testing.T) {
	vals := make([]int64, blockRows)
	for i := range vals {
		// First value: an 8-byte zigzag varint; each delta: an 8-byte uvarint.
		vals[i] = 1<<50 + int64(i)<<49
	}
	tbl := engine.MustNewTable("dl", engine.NewIntColumn("k", vals))
	path := writeTemp(t, tbl, nil)
	s := openTemp(t, path, Options{})
	cm := &s.cols[0]
	if got, want := cm.offs[1]-cm.offs[0], int64(1+8*blockRows); got != want {
		t.Fatalf("block length %d, want %d (fixture drifted)", got, want)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if enc := raw[cm.offs[0]]; enc != encDeltaInt {
		t.Fatalf("encoding byte %d, want encDeltaInt", enc)
	}
	got, err := s.srcs[0].ReadBlock(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Ints, vals) {
		t.Fatal("delta block decoded wrong")
	}
}

// TestClosedStore pins the post-Close surface: cache-missing scans fail
// with ErrClosed (no panic), already-cached blocks keep answering.
func TestClosedStore(t *testing.T) {
	n := 2 * blockRows
	tbl := testTable(t, "cl", n, 7)
	s := openTemp(t, writeTemp(t, tbl, nil), Options{})
	// Fault val + rnd blocks in, then close.
	warm := engine.Query{Func: engine.Sum, Col: "val", Ranges: []engine.Range{{Col: "rnd", Lo: -2e6, Hi: 2e6}}}
	want, err := s.Table().Execute(context.Background(), warm)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Cached blocks own their memory: the warm query still answers.
	got, err := s.Table().Execute(context.Background(), warm)
	if err != nil {
		t.Fatalf("cached query after close: %v", err)
	}
	if !stats.ExactEqual(got.Value, want.Value) {
		t.Fatalf("cached answer drifted after close: %g != %g", got.Value, want.Value)
	}
	// An uncached column faults and must fail cleanly.
	if _, err := s.Table().Execute(context.Background(), engine.Query{Func: engine.Sum, Col: "key"}); err == nil || !strings.Contains(err.Error(), "closed") {
		t.Fatalf("cold query after close: got %v, want ErrClosed", err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
}

// TestConcurrentScansAndClose is the -race hammer for the block cache's
// mutex (get/put/evict under concurrent scans, with stats readers beside
// them) and for Close landing while preads are in flight, which only
// *os.File's descriptor reference count guards. No static rule watches
// either; the race detector does, on the interleavings this test
// produces. Until Close every answer is bit-identical to the resident
// table; after it a scan either still answers correctly (from cached
// blocks, or from a read that started first) or fails with ErrClosed.
func TestConcurrentScansAndClose(t *testing.T) {
	tbl := testTable(t, "cc", 6*blockRows, 9)
	path := writeTemp(t, tbl, nil)
	queries := equivalenceQueries()
	want := make([]engine.Result, len(queries))
	for i, q := range queries {
		want[i], _ = tbl.Execute(context.Background(), q)
	}
	churn := int64(3 * (blockRows*8 + cacheEntryOverhead)) // 3 blocks against a 24-block working set
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"evicting cache", Options{CacheBytes: churn}},
		{"default cache", Options{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := openTemp(t, path, tc.opts)
			const workers, rounds = 4, 12
			underway := make(chan struct{})
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < rounds; i++ {
						if w == 0 && i == rounds/2 {
							close(underway)
						}
						k := (w + i) % len(queries)
						got, err := s.Table().Execute(context.Background(), queries[k])
						switch {
						case errors.Is(err, ErrClosed):
						case err != nil:
							t.Errorf("%+v: %v", queries[k], err)
						case !reflect.DeepEqual(got, want[k]):
							t.Errorf("%+v: backed %+v != resident %+v", queries[k], got, want[k])
						}
						if cs := s.Snapshot().Cache; cs.ResidentBytes > cs.CapBytes {
							t.Errorf("resident %d bytes exceeds cap %d", cs.ResidentBytes, cs.CapBytes)
						}
					}
				}(w)
			}
			<-underway
			if err := s.Close(); err != nil {
				t.Errorf("close under load: %v", err)
			}
			wg.Wait()
		})
	}
}

// TestWriteRefusesBacked pins the copy-before-rewrite rule, for the
// container's table and for a prep's sample table.
func TestWriteRefusesBacked(t *testing.T) {
	tbl := testTable(t, "wb", 100, 8)
	s := openTemp(t, writeTemp(t, tbl, nil), Options{})
	err := Write(filepath.Join(t.TempDir(), "again.aqps"), s.Table(), nil)
	if err == nil || !strings.Contains(err.Error(), "backend-served") {
		t.Fatalf("Write(backed) = %v, want refusal", err)
	}
	prep := Prep{Name: "p", Sample: &sample.Sample{Table: s.Table(), SourceRows: 100}}
	err = Write(filepath.Join(t.TempDir(), "sample.aqps"), tbl, []Prep{prep})
	if err == nil || !strings.Contains(err.Error(), "backend-served") {
		t.Fatalf("Write(backed sample) = %v, want refusal", err)
	}
}

// TestPrepRoundTrip pins prep persistence at the store layer: a
// stratified sample (strata + assignment vector), min/max indexes, and
// confidence all survive the container.
func TestPrepRoundTrip(t *testing.T) {
	tbl := testTable(t, "pp", 3000, 9)
	smp, err := sample.NewStratified(tbl, []string{"cat"}, 0.1, 5, 11)
	if err != nil {
		t.Fatal(err)
	}
	sub := smp.Subsample(0.3, 12)
	mm, err := cube.BuildMinMax(tbl, "val", "key")
	if err != nil {
		t.Fatal(err)
	}
	in := Prep{Name: "handle-a", Sample: smp, Sub: sub, MinMax: []*cube.MinMaxIndex{mm}, Confidence: 0.9}
	s := openTemp(t, writeTemp(t, tbl, []Prep{in}), Options{})
	preps := s.Preps()
	if len(preps) != 1 {
		t.Fatalf("Preps = %d, want 1", len(preps))
	}
	out := preps[0]
	if out.Name != "handle-a" || out.Confidence != 0.9 {
		t.Errorf("name=%q conf=%v", out.Name, out.Confidence)
	}
	if out.Cube != nil || out.CountCube != nil {
		t.Error("absent cubes resurrected")
	}
	if out.Sample.Kind != smp.Kind || out.Sample.SourceRows != smp.SourceRows {
		t.Errorf("sample kind/rows = %v/%d, want %v/%d", out.Sample.Kind, out.Sample.SourceRows, smp.Kind, smp.SourceRows)
	}
	if !reflect.DeepEqual(out.Sample.InvP, smp.InvP) ||
		!reflect.DeepEqual(out.Sample.Strata, smp.Strata) ||
		!reflect.DeepEqual(out.Sample.StratumOf, smp.StratumOf) {
		t.Error("sample weights/strata drifted through the container")
	}
	if out.Sample.Size() != smp.Size() {
		t.Errorf("sample size = %d, want %d", out.Sample.Size(), smp.Size())
	}
	if out.Sub == nil || out.Sub.Size() != sub.Size() {
		t.Error("subsample drifted")
	}
	// The min/max index must answer identically after its sparse-table
	// rebuild from persisted ords/vals.
	for _, rng := range [][2]float64{{0, 100}, {50, 999}, {0, 1e9}} {
		wmn, wmnOK := mm.Min(rng[0], rng[1])
		gmn, gmnOK := out.MinMax[0].Min(rng[0], rng[1])
		wmx, wmxOK := mm.Max(rng[0], rng[1])
		gmx, gmxOK := out.MinMax[0].Max(rng[0], rng[1])
		if wmnOK != gmnOK || wmxOK != gmxOK || !stats.ExactEqual(wmn, gmn) || !stats.ExactEqual(wmx, gmx) {
			t.Errorf("minmax [%g,%g]: got (%g,%g) want (%g,%g)", rng[0], rng[1], gmn, gmx, wmn, wmx)
		}
	}
}

// TestOpenRefusesInconsistentPrep: a CRC-valid container whose prep
// parts each parse but disagree is refused as corrupt at Open. Each
// case once opened; the short InvP then panicked on the first
// approximate query, which answerPreps would reproduce here.
func TestOpenRefusesInconsistentPrep(t *testing.T) {
	tbl := testTable(t, "ic", 400, 51)
	uni, err := sample.NewUniform(tbl, 0.2, 52)
	if err != nil {
		t.Fatal(err)
	}
	strat, err := sample.NewStratified(tbl, []string{"cat"}, 0.2, 3, 53)
	if err != nil {
		t.Fatal(err)
	}
	sumCube, err := cube.Build(tbl, cube.Template{Agg: "val", Dims: []string{"key"}}, [][]float64{{30, 90}})
	if err != nil {
		t.Fatal(err)
	}
	mm, err := cube.BuildMinMax(tbl, "val", "key")
	if err != nil {
		t.Fatal(err)
	}
	// without returns a copy of s whose table lacks column col.
	without := func(s *sample.Sample, col string) *sample.Sample {
		out := *s
		out.Table = engine.MustNewTable(s.Table.Name)
		for _, c := range s.Table.Columns {
			if c.Name != col {
				if err := out.Table.AddColumn(c); err != nil {
					t.Fatal(err)
				}
			}
		}
		return &out
	}
	for _, tc := range []struct {
		name, want string
		prep       func(p *Prep)
	}{
		{"invp-length", "of 80 rows has 40 weights", func(p *Prep) {
			s := *uni
			s.InvP = s.InvP[:len(s.InvP)/2]
			p.Sample = &s
		}},
		{"stratumof-length", "stratum indexes", func(p *Prep) {
			s := *strat
			s.StratumOf = s.StratumOf[1:]
			p.Sample = &s
		}},
		{"stratumof-range", "is in stratum 5 of 5", func(p *Prep) {
			s := *strat
			s.StratumOf = slices.Clone(s.StratumOf)
			s.StratumOf[3] = len(s.Strata)
			p.Sample = &s
		}},
		{"cube-not-in-table", `column "nope" is not in the table`, func(p *Prep) {
			c := *sumCube
			c.Template = cube.Template{Agg: "val", Dims: []string{"nope"}}
			p.Cube = &c
		}},
		{"cube-not-in-sample", `column "val" is not in sample`, func(p *Prep) {
			p.Sample = without(uni, "val")
			p.Cube = sumCube
		}},
		{"minmax-not-in-table", `column "nope" is not in the table`, func(p *Prep) {
			m := *mm
			m.Agg = "nope"
			p.MinMax = []*cube.MinMaxIndex{&m}
		}},
		{"minmax-not-in-sample", `column "key" is not in sample`, func(p *Prep) {
			p.Sample = without(uni, "key")
			p.MinMax = []*cube.MinMaxIndex{mm}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := Prep{Name: "h", Sample: uni, Confidence: 0.95}
			tc.prep(&p)
			s, err := Open(writeTemp(t, tbl, []Prep{p}), Options{})
			if err == nil {
				answerPreps(s)
				s.Close()
				t.Fatal("Open accepted an inconsistent prep")
			}
			if !strings.Contains(err.Error(), "corrupt file") || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Open error = %v, want a corrupt-file error containing %q", err, tc.want)
			}
		})
	}
}

// --- corruption ---------------------------------------------------------

// mustOpenErr opens a (deliberately damaged) container and requires a
// clean error mentioning want — never a panic, never success.
func mustOpenErr(t *testing.T, path, want string) {
	t.Helper()
	s, err := Open(path, Options{})
	if err == nil {
		s.Close()
		t.Fatalf("Open(%s) succeeded, want error containing %q", filepath.Base(path), want)
	}
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("Open error = %v, want substring %q", err, want)
	}
}

func corruptCopy(t *testing.T, path string, mutate func([]byte) []byte) string {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "corrupt.aqps")
	if err := os.WriteFile(out, mutate(append([]byte(nil), raw...)), 0o644); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestCorruption damages a valid container every way the format is
// supposed to detect and requires a clean, specific error for each.
func TestCorruption(t *testing.T) {
	// rows = blockRows exactly, so the rows uvarint is the 2-byte
	// encoding of 4096 and one patched byte makes it imply 2 blocks
	// against a 1-block index (the count-mismatch case below).
	tbl := testTable(t, "t", blockRows, 10)
	path := writeTemp(t, tbl, nil)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	footOff := len(raw) - footerSize
	metaOff := int64(binary.LittleEndian.Uint64(raw[footOff : footOff+8]))
	metaLen := int64(binary.LittleEndian.Uint64(raw[footOff+8 : footOff+16]))

	t.Run("truncated-footer", func(t *testing.T) {
		mustOpenErr(t, corruptCopy(t, path, func(b []byte) []byte {
			return b[:len(b)-10]
		}), "corrupt")
	})
	t.Run("tiny-file", func(t *testing.T) {
		mustOpenErr(t, corruptCopy(t, path, func(b []byte) []byte {
			return b[:20]
		}), "smaller than header+footer")
	})
	t.Run("bad-header-magic", func(t *testing.T) {
		mustOpenErr(t, corruptCopy(t, path, func(b []byte) []byte {
			b[0] ^= 0xff
			return b
		}), "bad magic")
	})
	t.Run("unsupported-version", func(t *testing.T) {
		mustOpenErr(t, corruptCopy(t, path, func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[4:8], 99)
			return b
		}), "unsupported format version")
	})
	t.Run("footer-checksum", func(t *testing.T) {
		mustOpenErr(t, corruptCopy(t, path, func(b []byte) []byte {
			b[len(b)-footerSize] ^= 0xff // metaOff byte; footerCRC now wrong
			return b
		}), "footer checksum")
	})
	t.Run("meta-checksum", func(t *testing.T) {
		mustOpenErr(t, corruptCopy(t, path, func(b []byte) []byte {
			b[metaOff+metaLen/2] ^= 0xff
			return b
		}), "meta checksum")
	})
	t.Run("block-count-mismatch", func(t *testing.T) {
		mustOpenErr(t, corruptCopy(t, path, func(b []byte) []byte {
			// Meta starts: len("t")=1, 't', then rows as a 2-byte uvarint
			// (4096 = 0x80 0x20). Patch to 4097 (0x81 0x20): rows now
			// imply 2 blocks, the per-column indexes still say 1. Re-seal
			// both checksums so only the mismatch trips.
			rowsAt := metaOff + 2
			if b[rowsAt] != 0x80 || b[rowsAt+1] != 0x20 {
				t.Fatalf("rows uvarint = % x, expected 80 20 (layout drift?)", b[rowsAt:rowsAt+2])
			}
			b[rowsAt] = 0x81
			meta := b[metaOff : metaOff+metaLen]
			binary.LittleEndian.PutUint32(b[footOff+16:footOff+20], crc32.ChecksumIEEE(meta))
			binary.LittleEndian.PutUint32(b[footOff+40:footOff+44], crc32.ChecksumIEEE(b[footOff:footOff+40]))
			return b
		}), "blocks in its index")
	})
	t.Run("meta-out-of-bounds", func(t *testing.T) {
		mustOpenErr(t, corruptCopy(t, path, func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[footOff:footOff+8], uint64(len(b)))
			binary.LittleEndian.PutUint32(b[footOff+40:footOff+44], crc32.ChecksumIEEE(b[footOff:footOff+40]))
			return b
		}), "out of bounds")
	})
	t.Run("prep-checksum", func(t *testing.T) {
		// Re-write with a prep so the prep section is non-empty.
		tbl2 := testTable(t, "t2", 100, 11)
		smp, err := sample.NewUniform(tbl2, 0.5, 1)
		if err != nil {
			t.Fatal(err)
		}
		p2 := writeTemp(t, tbl2, []Prep{{Name: "x", Sample: smp, Confidence: 0.95}})
		raw2, err := os.ReadFile(p2)
		if err != nil {
			t.Fatal(err)
		}
		fo := len(raw2) - footerSize
		prepOff := binary.LittleEndian.Uint64(raw2[fo+20 : fo+28])
		mustOpenErr(t, corruptCopy(t, p2, func(b []byte) []byte {
			b[prepOff+3] ^= 0xff
			return b
		}), "prep checksum")
	})
	// Data-block damage is not checksummed, but structural decode checks
	// still catch truncation-style corruption at fault time, as an error,
	// not a panic. Lying in the block index is CRC-protected; instead
	// open a valid container with default Options, then truncate it
	// under the store.
	t.Run("read-after-truncate", func(t *testing.T) {
		big := testTable(t, "big", 3*blockRows, 12)
		p3 := writeTemp(t, big, nil)
		s := openTemp(t, p3, Options{})
		if err := os.Truncate(p3, 64); err != nil {
			t.Fatal(err)
		}
		_, err := s.Table().Execute(context.Background(), engine.Query{Func: engine.Sum, Col: "val"})
		if err == nil || !strings.Contains(err.Error(), "corrupt") {
			t.Fatalf("scan over truncated file: %v, want a corrupt-file error", err)
		}
	})
}

// TestAtomicWrite pins the tmp-then-rename contract: a failed write never
// replaces an existing good container.
func TestAtomicWrite(t *testing.T) {
	tbl := testTable(t, "aw", 500, 13)
	path := writeTemp(t, tbl, nil)
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	backed := openTemp(t, path, Options{})
	// Write over the same path with a backed table: refused up front.
	if err := Write(path, backed.Table(), nil); err == nil {
		t.Fatal("backed rewrite accepted")
	}
	now, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(good, now) {
		t.Fatal("failed write damaged the existing container")
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Errorf("tmp file left behind: %v", err)
	}
}

// TestNaNNeverMatchesAfterRoundTrip: the container persists the engine's
// own block summaries, so a NaN row — invisible to a first-row-seeded
// min/max, which let a covering range classify its block full — matches
// no range from disk either, whichever block and position it sits in.
func TestNaNNeverMatchesAfterRoundTrip(t *testing.T) {
	n := 3 * blockRows
	nans := []int{5, blockRows, 2*blockRows + 77, n - 1}
	f := make([]float64, n)
	for i := range f {
		f[i] = float64(i % 100)
	}
	for _, i := range nans {
		f[i] = math.NaN()
	}
	tbl := engine.MustNewTable("nan", engine.NewFloatColumn("f", f))
	backed := openTemp(t, writeTemp(t, tbl, nil), Options{}).Table()
	for _, rng := range []engine.Range{
		{Col: "f", Lo: 0, Hi: 1000}, // covers every block
		{Col: "f", Lo: 0, Hi: 50},   // straddles every block
		{Col: "f", Lo: 100, Hi: 1000},
	} {
		want := 0
		for _, v := range f {
			if rng.Lo <= v && v <= rng.Hi {
				want++
			}
		}
		for name, tb := range map[string]*engine.Table{"resident": tbl, "backed": backed} {
			sel, err := tb.Filter([]engine.Range{rng})
			if err != nil {
				t.Fatal(err)
			}
			res, err := tb.Execute(context.Background(), engine.Query{Func: engine.Count, Ranges: []engine.Range{rng}})
			if err != nil {
				t.Fatal(err)
			}
			if sel.Count() != want || res.Value != float64(want) {
				t.Errorf("%s %v: Filter %d rows, COUNT %v, want %d", name, rng, sel.Count(), res.Value, want)
			}
			for _, i := range nans {
				if sel.Get(i) {
					t.Errorf("%s %v selected NaN row %d", name, rng, i)
				}
			}
		}
	}
	if lo, hi := backed.MustColumn("f").OrdinalDomain(); !math.IsInf(lo, -1) || hi != 99 {
		t.Errorf("backed OrdinalDomain = [%v, %v], want [-Inf, 99]", lo, hi)
	}
}
