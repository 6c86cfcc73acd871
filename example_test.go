package aqppp_test

import (
	"context"
	"fmt"
	"log"
	"time"

	"aqppp"
	"aqppp/internal/engine"
)

// Example demonstrates the basic prepare-then-query flow on a small
// deterministic table.
func Example() {
	// Ten rows: value = 10 * key.
	keys := make([]int64, 10)
	vals := make([]float64, 10)
	for i := range keys {
		keys[i] = int64(i + 1)
		vals[i] = float64(10 * (i + 1))
	}
	tbl := engine.MustNewTable("toy",
		engine.NewIntColumn("k", keys),
		engine.NewFloatColumn("v", vals),
	)
	db := aqppp.NewDB()
	if err := db.Register(tbl); err != nil {
		log.Fatal(err)
	}
	prep, err := db.Prepare(context.Background(), aqppp.PrepareOptions{
		Table: "toy", Aggregate: "v", Dimensions: []string{"k"},
		SampleRate: 1.0, // full sample: answers are exact
		CellBudget: 10,
		Seed:       1,
	})
	if err != nil {
		log.Fatal(err)
	}
	res, err := prep.Query(context.Background(), "SELECT SUM(v) FROM toy WHERE k BETWEEN 3 AND 6")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%.0f ± %.0f\n", res.Value, res.HalfWidth)
	// Output: 180 ± 0
}

// ExampleDB_Exact runs an exact query under a cancelable context and a
// budget. The DB-wide default's generous deadline lets the query
// finish; a context carrying a tighter budget of its own overruns it
// (ErrBudgetExceeded) for that call only; and a caller who cancels
// first gets an ErrCanceled-kind error.
func ExampleDB_Exact() {
	keys := make([]int64, 100)
	vals := make([]float64, 100)
	for i := range keys {
		keys[i] = int64(i + 1)
		vals[i] = float64(i + 1)
	}
	tbl := engine.MustNewTable("toy",
		engine.NewIntColumn("k", keys),
		engine.NewFloatColumn("v", vals),
	)
	db := aqppp.NewDB()
	if err := db.Register(tbl); err != nil {
		log.Fatal(err)
	}
	db.SetDefaultBudget(aqppp.Budget{Timeout: time.Minute})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	res, err := db.Exact(ctx, "SELECT SUM(v) FROM toy WHERE k BETWEEN 1 AND 10")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sum=%.0f\n", res.Value)

	tight := aqppp.WithBudget(ctx, aqppp.Budget{Timeout: time.Nanosecond})
	_, err = db.Exact(tight, "SELECT SUM(v) FROM toy")
	fmt.Println("tight budget:", aqppp.ErrorKindOf(err))

	cancel()
	_, err = db.Exact(ctx, "SELECT SUM(v) FROM toy")
	fmt.Println("after cancel:", aqppp.ErrorKindOf(err))
	// Output:
	// sum=55
	// tight budget: budget-exceeded
	// after cancel: canceled
}
