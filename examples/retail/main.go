// Retail exploration: the paper's §7.3 "changes of condition attributes"
// scenario on TPCD-Skew. One BP-Cube is precomputed for the template
// [SUM(l_extendedprice), l_orderkey, l_partkey, l_suppkey]; the analyst
// then explores with fewer and with more condition attributes, and AQP++
// keeps reusing the single cube through query rewriting.
//
//	go run ./examples/retail
package main

import (
	"context"
	"fmt"
	"log"

	"aqppp"
	"aqppp/internal/core"
	"aqppp/internal/dataset"
	"aqppp/internal/sql"
)

func main() {
	ctx := context.Background()
	tbl := dataset.TPCDSkew(dataset.TPCDConfig{Rows: 300000, Seed: 5})
	db := aqppp.NewDB()
	if err := db.Register(tbl); err != nil {
		log.Fatal(err)
	}

	prep, err := db.Prepare(ctx, aqppp.PrepareOptions{
		Table:      "lineitem",
		Aggregate:  "l_extendedprice",
		Dimensions: []string{"l_orderkey", "l_partkey", "l_suppkey"},
		SampleRate: 0.01,
		CellBudget: 8000,
		Seed:       11,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("BP-Cube prepared for [SUM(l_extendedprice), l_orderkey, l_partkey, l_suppkey]")

	exploration := []struct {
		label string
		stmt  string
	}{
		{"Q1: fewer attributes (orderkey only)",
			"SELECT SUM(l_extendedprice) FROM lineitem WHERE l_orderkey BETWEEN 1 AND 40"},
		{"Q2: two of the cube's attributes",
			"SELECT SUM(l_extendedprice) FROM lineitem WHERE l_orderkey BETWEEN 1 AND 60 AND l_partkey BETWEEN 1 AND 2000"},
		{"Q3: the cube's own template",
			"SELECT SUM(l_extendedprice) FROM lineitem WHERE l_orderkey BETWEEN 1 AND 80 AND l_partkey BETWEEN 1 AND 3000 AND l_suppkey BETWEEN 1 AND 800"},
		{"Q4: an extra attribute beyond the cube (quantity)",
			"SELECT SUM(l_extendedprice) FROM lineitem WHERE l_orderkey BETWEEN 1 AND 80 AND l_quantity BETWEEN 10 AND 40"},
	}

	// Plain AQP on the same sample is the processor with no cube (pre = φ).
	plainAQP := &core.Processor{Sample: prep.Sample(), Confidence: 0.95}
	for _, step := range exploration {
		exact, err := db.Exact(ctx, step.stmt)
		if err != nil {
			log.Fatal(err)
		}
		q, err := sql.ParseAndCompile(step.stmt, tbl)
		if err != nil {
			log.Fatal(err)
		}
		ans, err := plainAQP.Answer(q)
		if err != nil {
			log.Fatal(err)
		}
		plain := ans.Estimate
		approx, err := prep.Query(ctx, step.stmt)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n%s\n", step.label)
		fmt.Printf("  exact  %14.0f\n", exact.Value)
		fmt.Printf("  AQP    %14.0f ± %-12.0f (%.2f%% of truth)\n",
			plain.Value, plain.HalfWidth, pct(plain.HalfWidth, exact.Value))
		fmt.Printf("  AQP++  %14.0f ± %-12.0f (%.2f%% of truth; pre = %s)\n",
			approx.Value, approx.HalfWidth, pct(approx.HalfWidth, exact.Value), approx.Pre)
	}
	fmt.Println("\nOne precomputed cube keeps helping as the analyst adds or drops attributes (paper §7.3, Figure 9).")
}

func pct(x, base float64) float64 {
	if base == 0 {
		return 0
	}
	return 100 * x / base
}
