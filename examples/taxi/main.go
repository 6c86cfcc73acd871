// Taxi dashboard: the paper's TLCTrip scenario — an analyst slicing NYC
// yellow-cab trips by date, time-of-day and fare, comparing AQP++ against
// plain AQP on the very same sample for a panel of dashboard queries.
//
//	go run ./examples/taxi
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"aqppp"
	"aqppp/internal/core"
	"aqppp/internal/dataset"
	"aqppp/internal/sql"
)

func main() {
	ctx := context.Background()
	// 400k synthetic trips with realistic correlations (fare ~ distance,
	// dropoff = pickup + duration, night surcharges).
	tbl := dataset.TLCTrip(dataset.TLCTripConfig{Rows: 400000, Seed: 99})
	db := aqppp.NewDB()
	if err := db.Register(tbl); err != nil {
		log.Fatal(err)
	}

	prep, err := db.Prepare(ctx, aqppp.PrepareOptions{
		Table:      "tlctrip",
		Aggregate:  "Distance",
		Dimensions: []string{"Pickup_Date", "Pickup_Time", "Fare_Amt"},
		SampleRate: 0.01,
		CellBudget: 5000,
		Seed:       3,
	})
	if err != nil {
		log.Fatal(err)
	}
	st := prep.Stats()
	fmt.Printf("prepared: %d-row sample, %v-shaped cube (%d cells)\n\n",
		st.SampleRows, st.CubeShape, st.CubeCells)

	dashboard := []string{
		// Total miles in the first quarter of the data.
		"SELECT SUM(Distance) FROM tlctrip WHERE Pickup_Date BETWEEN 1 AND 725",
		// Morning-rush miles across two years.
		"SELECT SUM(Distance) FROM tlctrip WHERE Pickup_Date BETWEEN 300 AND 1000 AND Pickup_Time BETWEEN 420 AND 560",
		// Expensive evening trips.
		"SELECT SUM(Distance) FROM tlctrip WHERE Pickup_Time BETWEEN 1020 AND 1260 AND Fare_Amt BETWEEN 25 AND 80",
		// A narrow drill-down.
		"SELECT SUM(Distance) FROM tlctrip WHERE Pickup_Date BETWEEN 2000 AND 2100 AND Fare_Amt BETWEEN 5 AND 20",
	}

	// Plain AQP on the same sample is the processor with no cube (pre = φ).
	plainAQP := &core.Processor{Sample: prep.Sample(), Confidence: 0.95}
	fmt.Printf("%-4s %12s %22s %22s %9s\n", "#", "exact", "AQP (same sample)", "AQP++", "gain")
	for i, stmt := range dashboard {
		exact, err := db.Exact(ctx, stmt)
		if err != nil {
			log.Fatal(err)
		}
		q, err := sql.ParseAndCompile(stmt, tbl)
		if err != nil {
			log.Fatal(err)
		}
		ans, err := plainAQP.Answer(q)
		if err != nil {
			log.Fatal(err)
		}
		plain := ans.Estimate
		t0 := time.Now()
		approx, err := prep.Query(ctx, stmt)
		if err != nil {
			log.Fatal(err)
		}
		el := time.Since(t0)
		gain := 0.0
		if approx.HalfWidth > 0 {
			gain = plain.HalfWidth / approx.HalfWidth
		}
		fmt.Printf("Q%-3d %12.0f %13.0f ± %-7.0f %13.0f ± %-7.0f %7.1fx  [%v]\n",
			i+1, exact.Value,
			plain.Value, plain.HalfWidth,
			approx.Value, approx.HalfWidth,
			gain, el.Round(time.Microsecond))
	}
	fmt.Println("\n'gain' is the CI-width ratio AQP/AQP++ on the identical sample.")
}
