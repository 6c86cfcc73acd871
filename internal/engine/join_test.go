package engine

import (
	"context"
	"testing"

	"aqppp/internal/stats"
)

func joinFixture(t *testing.T, n int, seed uint64) (*Table, *Table) {
	t.Helper()
	r := stats.NewRNG(seed)
	const suppliers = 50
	// Dimension: suppliers with a region and a rating.
	ids := make([]int64, suppliers)
	region := make([]string, suppliers)
	rating := make([]int64, suppliers)
	regions := []string{"north", "south", "east", "west"}
	for i := 0; i < suppliers; i++ {
		ids[i] = int64(i + 1)
		region[i] = regions[r.Intn(len(regions))]
		rating[i] = int64(r.Intn(5) + 1)
	}
	dim := MustNewTable("supplier",
		NewIntColumn("s_id", ids),
		NewStringColumn("region", region),
		NewIntColumn("rating", rating),
	)
	// Fact: orders pointing at suppliers.
	fk := make([]int64, n)
	amount := make([]float64, n)
	for i := 0; i < n; i++ {
		fk[i] = int64(r.Intn(suppliers) + 1)
		amount[i] = 10 + 5*r.NormFloat64()
	}
	fact := MustNewTable("orders",
		NewIntColumn("o_supp", fk),
		NewFloatColumn("amount", amount),
	)
	return fact, dim
}

func TestHashJoinFKBasic(t *testing.T) {
	fact, dim := joinFixture(t, 2000, 1)
	joined, err := HashJoinFK(fact, "o_supp", dim, "s_id")
	if err != nil {
		t.Fatal(err)
	}
	if joined.NumRows() != 2000 {
		t.Fatalf("joined rows = %d", joined.NumRows())
	}
	for _, col := range []string{"o_supp", "amount", "supplier.region", "supplier.rating"} {
		if !joined.HasColumn(col) {
			t.Errorf("missing column %q", col)
		}
	}
	if joined.HasColumn("supplier.s_id") || joined.HasColumn("s_id") {
		t.Error("key column duplicated into the join result")
	}
	// Spot-check the attribution: every row's region must match its
	// supplier's.
	fk := joined.MustColumn("o_supp")
	reg := joined.MustColumn("supplier.region")
	dimReg := dim.MustColumn("region")
	for i := 0; i < 100; i++ {
		want := dimReg.StringAt(int(fk.Ints[i] - 1))
		if got := reg.StringAt(i); got != want {
			t.Fatalf("row %d: region %q, want %q", i, got, want)
		}
	}
}

func TestHashJoinFKAggregation(t *testing.T) {
	fact, dim := joinFixture(t, 5000, 2)
	joined, err := HashJoinFK(fact, "o_supp", dim, "s_id")
	if err != nil {
		t.Fatal(err)
	}
	// SUM over a dimension-attribute condition equals the brute-force
	// two-table computation.
	q := Query{Func: Sum, Col: "amount",
		Ranges: []Range{{Col: "supplier.rating", Lo: 4, Hi: 5}}}
	res, err := joined.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.0
	fk := fact.MustColumn("o_supp").Ints
	amount := fact.MustColumn("amount").Floats
	rating := dim.MustColumn("rating").Ints
	for i := range fk {
		if r := rating[fk[i]-1]; r >= 4 {
			want += amount[i]
		}
	}
	if res.Value != want {
		t.Errorf("joined SUM = %v, want %v", res.Value, want)
	}
}

func TestJoinCommutesWithSampling(t *testing.T) {
	// The footnote-2 property: a uniform sample of the fact table, joined,
	// equals the same uniform sample drawn from the joined table (same
	// rows, same attributes), because the FK join is 1:1 per fact row.
	fact, dim := joinFixture(t, 3000, 3)
	joinedFull, err := HashJoinFK(fact, "o_supp", dim, "s_id")
	if err != nil {
		t.Fatal(err)
	}
	// "Sample" = a fixed subset of row indices (what sample.NewUniform
	// produces for a given seed); gather from both sides.
	r := stats.NewRNG(4)
	idx := make([]int, 0, 300)
	for i := 0; i < 3000; i++ {
		if r.Float64() < 0.1 {
			idx = append(idx, i)
		}
	}
	sampledThenJoined, err := HashJoinFK(fact.Gather("orders", idx), "o_supp", dim, "s_id")
	if err != nil {
		t.Fatal(err)
	}
	joinedThenSampled := joinedFull.Gather("orders_supplier", idx)
	if sampledThenJoined.NumRows() != joinedThenSampled.NumRows() {
		t.Fatalf("row counts differ: %d vs %d",
			sampledThenJoined.NumRows(), joinedThenSampled.NumRows())
	}
	for _, col := range []string{"o_supp", "amount", "supplier.region", "supplier.rating"} {
		a := sampledThenJoined.MustColumn(col)
		b := joinedThenSampled.MustColumn(col)
		for i := 0; i < sampledThenJoined.NumRows(); i++ {
			if a.StringAt(i) != b.StringAt(i) {
				t.Fatalf("column %q row %d: %q vs %q", col, i, a.StringAt(i), b.StringAt(i))
			}
		}
	}
}

func TestHashJoinFKErrors(t *testing.T) {
	fact, dim := joinFixture(t, 100, 5)
	if _, err := HashJoinFK(fact, "nope", dim, "s_id"); err == nil {
		t.Error("bad fk column accepted")
	}
	if _, err := HashJoinFK(fact, "o_supp", dim, "nope"); err == nil {
		t.Error("bad key column accepted")
	}
	if _, err := HashJoinFK(fact, "o_supp", dim, "region"); err == nil {
		t.Error("string key accepted")
	}
	// Duplicate keys in the dimension.
	dup := MustNewTable("d",
		NewIntColumn("k", []int64{1, 1}),
		NewFloatColumn("x", []float64{1, 2}),
	)
	if _, err := HashJoinFK(fact, "o_supp", dup, "k"); err == nil {
		t.Error("duplicate dimension key accepted")
	}
	// Dangling foreign key.
	tiny := MustNewTable("d2",
		NewIntColumn("k", []int64{1}),
		NewFloatColumn("x", []float64{1}),
	)
	if _, err := HashJoinFK(fact, "o_supp", tiny, "k"); err == nil {
		t.Error("dangling FK accepted")
	}
}
