// Star schema: the footnote-2 extension — AQP++ over a fact table joined
// with a dimension table. The foreign-key join is denormalized once with
// engine.HashJoinFK; templates may then mix fact attributes (order key)
// with dimension attributes (supplier rating), and dotted column names
// flow through the SQL front end.
//
//	go run ./examples/star
package main

import (
	"context"
	"fmt"
	"log"

	"aqppp"
	"aqppp/internal/engine"
	"aqppp/internal/stats"
)

func main() {
	ctx := context.Background()
	r := stats.NewRNG(7)

	// Dimension: 200 suppliers with a rating and a region.
	const suppliers = 200
	sid := make([]int64, suppliers)
	rating := make([]int64, suppliers)
	region := make([]string, suppliers)
	regions := []string{"north", "south", "east", "west"}
	for i := range sid {
		sid[i] = int64(i + 1)
		rating[i] = int64(r.Intn(5) + 1)
		region[i] = regions[r.Intn(len(regions))]
	}
	supplier := engine.MustNewTable("supplier",
		engine.NewIntColumn("s_id", sid),
		engine.NewIntColumn("rating", rating),
		engine.NewStringColumn("region", region),
	)

	// Fact: 500k order lines; higher-rated suppliers move bigger orders.
	const n = 500000
	fk := make([]int64, n)
	amount := make([]float64, n)
	for i := 0; i < n; i++ {
		fk[i] = int64(r.Intn(suppliers) + 1)
		amount[i] = 10*float64(rating[fk[i]-1]) + 8*r.NormFloat64()
		if amount[i] < 1 {
			amount[i] = 1
		}
	}
	orders := engine.MustNewTable("orders",
		engine.NewIntColumn("o_supp", fk),
		engine.NewFloatColumn("amount", amount),
	)

	joined, err := engine.HashJoinFK(orders, "o_supp", supplier, "s_id")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("joined table %q: %d rows, columns %v\n\n",
		joined.Name, joined.NumRows(), joined.ColumnNames())

	db := aqppp.NewDB()
	if err := db.Register(joined); err != nil {
		log.Fatal(err)
	}
	prep, err := db.Prepare(ctx, aqppp.PrepareOptions{
		Table: joined.Name, Aggregate: "amount",
		Dimensions: []string{"o_supp", "supplier.rating"},
		SampleRate: 0.01, CellBudget: 48, Seed: 9, // a tiny cube: 48 cells over 200×5 values
	})
	if err != nil {
		log.Fatal(err)
	}

	for _, stmt := range []string{
		"SELECT SUM(amount) FROM orders_supplier WHERE supplier.rating BETWEEN 4 AND 5",
		"SELECT SUM(amount) FROM orders_supplier WHERE o_supp BETWEEN 20 AND 120 AND supplier.rating BETWEEN 2 AND 3",
	} {
		exact, err := db.Exact(ctx, stmt)
		if err != nil {
			log.Fatal(err)
		}
		approx, err := prep.Query(ctx, stmt)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s\n  exact  %14.0f\n  AQP++  %14.0f ± %.0f (%.3f%% of truth)\n\n",
			stmt, exact.Value, approx.Value, approx.HalfWidth,
			100*approx.HalfWidth/exact.Value)
	}
	fmt.Println("Sampling the fact table and joining commutes with joining then sampling (footnote 2 / BlinkDB-style FK joins).")
}
