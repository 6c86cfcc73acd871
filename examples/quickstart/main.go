// Quickstart: build a table, prepare AQP++, and compare an approximate
// answer with the exact one.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"aqppp"
	"aqppp/internal/engine"
	"aqppp/internal/stats"
)

func main() {
	ctx := context.Background()
	// A synthetic "orders" table: 500k rows of (customer ID, amount).
	const n = 500000
	r := stats.NewRNG(1)
	customer := make([]int64, n)
	amount := make([]float64, n)
	for i := 0; i < n; i++ {
		customer[i] = int64(r.Intn(10000) + 1)
		amount[i] = 20 + 0.01*float64(customer[i]) + 15*r.NormFloat64()
		if amount[i] < 1 {
			amount[i] = 1
		}
	}
	tbl := engine.MustNewTable("orders",
		engine.NewIntColumn("customer", customer),
		engine.NewFloatColumn("amount", amount),
	)

	db := aqppp.NewDB()
	if err := db.Register(tbl); err != nil {
		log.Fatal(err)
	}

	// Offline: a 1% sample plus a 200-cell BP-Cube for the template
	// [SUM(amount), customer].
	t0 := time.Now()
	prep, err := db.Prepare(ctx, aqppp.PrepareOptions{
		Table:      "orders",
		Aggregate:  "amount",
		Dimensions: []string{"customer"},
		SampleRate: 0.01,
		CellBudget: 200,
		Seed:       7,
	})
	if err != nil {
		log.Fatal(err)
	}
	st := prep.Stats()
	fmt.Printf("prepared in %v: %d-row sample + %d-cell cube (%d bytes total)\n\n",
		time.Since(t0).Round(time.Millisecond), st.SampleRows, st.CubeCells,
		st.SampleBytes+st.CubeBytes)

	stmt := "SELECT SUM(amount) FROM orders WHERE customer BETWEEN 1200 AND 4700"

	t1 := time.Now()
	approx, err := prep.Query(ctx, stmt)
	if err != nil {
		log.Fatal(err)
	}
	approxTime := time.Since(t1)

	t2 := time.Now()
	exact, err := db.Exact(ctx, stmt)
	if err != nil {
		log.Fatal(err)
	}
	exactTime := time.Since(t2)

	fmt.Printf("query: %s\n", stmt)
	fmt.Printf("AQP++: %14.2f ± %-12.2f in %8v (used pre: %v)\n",
		approx.Value, approx.HalfWidth, approxTime.Round(time.Microsecond), approx.UsedPrecomputed)
	fmt.Printf("exact: %14.2f                 in %8v\n", exact.Value, exactTime.Round(time.Microsecond))
	relErr := (approx.Value - exact.Value) / exact.Value
	fmt.Printf("actual deviation: %.3f%%; CI half-width: %.3f%% of truth\n",
		100*relErr, 100*approx.HalfWidth/exact.Value)
}
