package core

import (
	"context"
	"fmt"
	"math"
	"os"
	"slices"
	"strconv"
	"testing"

	"aqppp/internal/cube"
	"aqppp/internal/engine"
	"aqppp/internal/sample"
	"aqppp/internal/stats"
)

func TestProgressiveShrinkingIntervals(t *testing.T) {
	tbl := testTable(30000, 80)
	// Build a cube separately (simulating the warehouse's precomputed
	// aggregates existing before the online session).
	built, _, err := Build(context.Background(), tbl, BuildConfig{
		Template:   cube.Template{Agg: "a", Dims: []string{"c1"}},
		SampleRate: 0.01, CellBudget: 15, Seed: 81,
	})
	if err != nil {
		t.Fatal(err)
	}
	pg, err := NewProgressive(tbl, built.Cube, 0.95, 82)
	if err != nil {
		t.Fatal(err)
	}
	q := engine.Query{Func: engine.Sum, Col: "a",
		Ranges: []engine.Range{{Col: "c1", Lo: 17, Hi: 73}}}
	truth, _ := tbl.Execute(context.Background(), q)
	var answers []Answer
	for _, add := range []int{200, 400, 800, 1600} {
		pg.Step(add)
		ans, err := pg.Answer(q)
		if err != nil {
			t.Fatal(err)
		}
		answers = append(answers, ans)
	}
	// Intervals shrink roughly as 1/√n: require strict overall decrease.
	first := answers[0].Estimate.HalfWidth
	last := answers[3].Estimate.HalfWidth
	if last >= first {
		t.Errorf("interval did not shrink: %v -> %v", first, last)
	}
	// Final estimate is close to the truth.
	final := answers[3].Estimate
	if rel := math.Abs(final.Value-truth.Value) / truth.Value; rel > 0.1 {
		t.Errorf("final estimate off by %v", rel)
	}
	if pg.SampleSize() != 3000 {
		t.Errorf("sample size = %d", pg.SampleSize())
	}
}

func TestProgressiveExhaustsTable(t *testing.T) {
	tbl := testTable(500, 83)
	pg, err := NewProgressive(tbl, nil, 0.95, 84)
	if err != nil {
		t.Fatal(err)
	}
	if got := pg.Step(10000); got != 500 {
		t.Errorf("Step beyond table = %d", got)
	}
	// With every row sampled, the estimate is exact.
	q := engine.Query{Func: engine.Sum, Col: "a"}
	truth, _ := tbl.Execute(context.Background(), q)
	ans, err := pg.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ans.Estimate.Value-truth.Value) > 1e-6*math.Abs(truth.Value) {
		t.Errorf("full-sample estimate %v != truth %v", ans.Estimate.Value, truth.Value)
	}
}

func TestProgressiveErrors(t *testing.T) {
	tbl := testTable(100, 85)
	pg, err := NewProgressive(tbl, nil, 0.95, 86)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pg.Answer(engine.Query{Func: engine.Sum, Col: "a"}); err == nil {
		t.Error("empty sample answered")
	}
	pg.Step(10)
	if _, err := pg.Answer(engine.Query{Func: engine.Avg, Col: "a"}); err == nil {
		t.Error("AVG accepted")
	}
	empty := engine.MustNewTable("e", engine.NewFloatColumn("a", nil))
	if _, err := NewProgressive(empty, nil, 0.95, 87); err == nil {
		t.Error("empty table accepted")
	}
}

func TestMinMaxThroughProcessor(t *testing.T) {
	tbl := testTable(10000, 88)
	p, _, err := Build(context.Background(), tbl, BuildConfig{
		Template:   cube.Template{Agg: "a", Dims: []string{"c1"}},
		SampleRate: 0.05, CellBudget: 10, Seed: 89, WithMinMax: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.MinMax) != 1 {
		t.Fatalf("built %d MinMax indexes", len(p.MinMax))
	}
	q := engine.Query{Func: engine.Max, Col: "a",
		Ranges: []engine.Range{{Col: "c1", Lo: 20, Hi: 60}}}
	truth, _ := tbl.Execute(context.Background(), q)
	ans, err := p.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Estimate.Value != truth.Value {
		t.Errorf("MAX = %v, want %v", ans.Estimate.Value, truth.Value)
	}
	if ans.Estimate.HalfWidth != 0 {
		t.Error("exact MAX carries uncertainty")
	}
	// Queries over a non-indexed dimension are rejected with guidance.
	q2 := engine.Query{Func: engine.Min, Col: "a",
		Ranges: []engine.Range{{Col: "c2", Lo: 1, Hi: 5}}}
	if _, err := p.Answer(q2); err == nil {
		t.Error("uncovered MIN accepted")
	}
}

// forwardShuffle is the dense forward Fisher–Yates shuffle the stream's
// sampler must reproduce draw for draw: the first k positions of a
// permutation of [0, n) under seed.
func forwardShuffle(n, k int, seed uint64) []int {
	r := stats.NewRNG(seed)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + r.Intn(n-i)
		perm[i], perm[j] = perm[j], perm[i]
	}
	return perm[:k]
}

// TestProgressivePrefixIsForwardShuffle: however a stream's steps are
// sized, its prefix is the dense forward shuffle's under the same seed —
// so a seed fixes the stream, and the prefix holds no row twice.
func TestProgressivePrefixIsForwardShuffle(t *testing.T) {
	const n = 5000
	tbl := testTable(n, 93)
	for _, steps := range [][]int{{n}, {1, 1, 1, 2, 3, 4000}, {700, 0, 1300, 2999}, {64, 64, 64, 64, 1000, 1}} {
		for _, seed := range []uint64{0, 1, 94} {
			pg, err := NewProgressive(tbl, nil, 0.95, seed)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range steps {
				pg.Step(k)
			}
			want := forwardShuffle(n, pg.SampleSize(), seed)
			if !slices.Equal(pg.prefix, want) {
				t.Fatalf("steps %v seed %d: prefix differs from the dense forward shuffle", steps, seed)
			}
			seen := make([]bool, n)
			for _, row := range pg.prefix {
				if row < 0 || row >= n || seen[row] {
					t.Fatalf("steps %v seed %d: row %d out of range or drawn twice", steps, seed, row)
				}
				seen[row] = true
			}
		}
	}
}

// TestProgressiveStepPastEndIsPermutation: stepping past the table
// draws every row exactly once.
func TestProgressiveStepPastEndIsPermutation(t *testing.T) {
	const n = 40000
	tbl := testTable(n, 95)
	pg, err := NewProgressive(tbl, nil, 0.95, 96)
	if err != nil {
		t.Fatal(err)
	}
	pg.Step(7919)
	if _, err := pg.Answer(engine.Query{Func: engine.Count}); err != nil {
		t.Fatal(err)
	}
	for pg.Step(7919) < n {
	}
	if got := pg.Step(1); got != n {
		t.Fatalf("exhausted stream grew to %d", got)
	}
	sorted := slices.Clone(pg.prefix)
	slices.Sort(sorted)
	for i, row := range sorted {
		if row != i {
			t.Fatalf("prefix is not a permutation of [0, %d): sorted[%d] = %d", n, i, row)
		}
	}
	if pg.sample.Size() != n {
		t.Errorf("sample holds %d rows, want %d", pg.sample.Size(), n)
	}
}

// TestProgressivePrefixUniform: over many seeds, the number of streams
// whose first k rows include a given row is Binomial(streams, k/n) for
// every row; each count must lie inside a 5σ band (about one false alarm
// in 1.7 million rows). AQPPP_UNIFORMITY_STREAMS raises the stream count
// (the nightly run does).
func TestProgressivePrefixUniform(t *testing.T) {
	const n, k = 97, 13
	streams := 20000
	if s, err := strconv.Atoi(os.Getenv("AQPPP_UNIFORMITY_STREAMS")); err == nil && s > 0 {
		streams = s
	}
	tbl := testTable(n, 97)
	counts := make([]int, n)
	for seed := 0; seed < streams; seed++ {
		pg, err := NewProgressive(tbl, nil, 0.95, uint64(seed))
		if err != nil {
			t.Fatal(err)
		}
		pg.Step(k)
		for _, row := range pg.prefix {
			counts[row]++
		}
	}
	p := float64(k) / n
	mean := float64(streams) * p
	band := 5 * math.Sqrt(mean*(1-p))
	for row, c := range counts {
		if math.Abs(float64(c)-mean) > band {
			t.Errorf("row %d in %d of %d first-%d prefixes, want %.0f ± %.0f", row, c, streams, k, mean, band)
		}
	}
}

// TestProgressiveGathersOnlyReadColumns: the sample holds the columns
// the answered queries read — the measure, the range columns, the cube's
// dimensions when the cube anchors the query — each over the whole
// prefix; a query that reads none keeps one column for the row count.
func TestProgressiveGathersOnlyReadColumns(t *testing.T) {
	tbl := testTable(6000, 98)
	built, _, err := Build(context.Background(), tbl, BuildConfig{
		Template:   cube.Template{Agg: "a", Dims: []string{"c1"}},
		SampleRate: 0.05, CellBudget: 10, Seed: 99,
	})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		cube *cube.BPCube
		q    engine.Query
		want []string
	}{
		// COUNT(*) with no range and no cube reads nothing.
		{nil, engine.Query{Func: engine.Count}, []string{"c1"}},
		// SUM(c2) is not the cube's aggregate: no cube dimensions.
		{built.Cube, engine.Query{Func: engine.Sum, Col: "c2"}, []string{"c2"}},
		{built.Cube, engine.Query{Func: engine.Sum, Col: "a",
			Ranges: []engine.Range{{Col: "c2", Lo: 3, Hi: 30}}}, []string{"a", "c2", "c1"}},
	}
	for _, s := range cases {
		pg, err := NewProgressive(tbl, s.cube, 0.95, 100)
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 3; round++ {
			pg.Step(500)
			if _, err := pg.Answer(s.q); err != nil {
				t.Fatal(err)
			}
		}
		if got := pg.sample.Table.ColumnNames(); !slices.Equal(got, s.want) {
			t.Errorf("%v: sample columns %v, want %v", s.q, got, s.want)
		}
		for _, col := range pg.sample.Table.Columns {
			if col.Len() != pg.SampleSize() {
				t.Errorf("%v: column %s holds %d rows, sample %d", s.q, col.Name, col.Len(), pg.SampleSize())
			}
		}
	}
}

// TestProgressiveMatchesGatheredPrefix: the growing sample is the same
// sample Gather builds over the same row prefix, so every round answers
// exactly as a Processor over that prefix does — for an int, a float and
// a string predicate. The string one is the repro: the growing sample
// used to re-intern strings into its own dictionary, so its ranks were
// ranks among the strings seen so far while the query's bounds are ranks
// in the table's dictionary, and a high-cardinality range answered 0 ± 0.
func TestProgressiveMatchesGatheredPrefix(t *testing.T) {
	const n, keys = 60000, 15000
	r := stats.NewRNG(91)
	ci := make([]int64, n)
	cf := make([]float64, n)
	cs := make([]string, n)
	m := make([]float64, n)
	for i := 0; i < n; i++ {
		ci[i] = int64(r.Intn(1000))
		cf[i] = r.Float64() * 1000
		cs[i] = fmt.Sprintf("key%05d", r.Intn(keys))
		m[i] = 1
	}
	tbl := engine.MustNewTable("t",
		engine.NewIntColumn("ci", ci), engine.NewFloatColumn("cf", cf),
		engine.NewStringColumn("cs", cs), engine.NewFloatColumn("m", m))
	queries := []engine.Query{
		{Func: engine.Sum, Col: "m", Ranges: []engine.Range{{Col: "ci", Lo: 200, Hi: 700}}},
		{Func: engine.Sum, Col: "m", Ranges: []engine.Range{{Col: "cf", Lo: 123.5, Hi: 612.25}}},
		// The upper half of the keys by rank: about n/2 rows.
		{Func: engine.Sum, Col: "m", Ranges: []engine.Range{{Col: "cs", Lo: keys / 2, Hi: keys - 1}}},
	}
	pg, err := NewProgressive(tbl, nil, 0.95, 92)
	if err != nil {
		t.Fatal(err)
	}
	for round := 1; round <= 4; round++ {
		size := pg.Step(3000)
		prefix := pg.prefix[:size]
		invP := make([]float64, size)
		for i := range invP {
			invP[i] = n
		}
		ref := &Processor{Confidence: 0.95, Sample: &sample.Sample{
			Kind: sample.Uniform, Table: tbl.Gather("prefix", prefix), SourceRows: n, InvP: invP,
		}}
		for _, q := range queries {
			got, err := pg.Answer(q)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ref.Answer(q)
			if err != nil {
				t.Fatal(err)
			}
			if !stats.ExactEqual(got.Estimate.Value, want.Estimate.Value) ||
				!stats.ExactEqual(got.Estimate.HalfWidth, want.Estimate.HalfWidth) {
				t.Errorf("round %d %v: progressive %v ± %v, gathered prefix %v ± %v", round, q,
					got.Estimate.Value, got.Estimate.HalfWidth, want.Estimate.Value, want.Estimate.HalfWidth)
			}
			if got.Estimate.Value <= 0 || got.Estimate.HalfWidth <= 0 {
				t.Errorf("round %d %v: answered %v ± %v on a selection of about half the rows",
					round, q, got.Estimate.Value, got.Estimate.HalfWidth)
			}
		}
	}
}
