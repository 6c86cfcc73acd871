package dataset

import (
	"context"
	"testing"

	"aqppp/internal/engine"
	"aqppp/internal/stats"
)

func colFloats(t *testing.T, tbl *engine.Table, name string) []float64 {
	t.Helper()
	c, err := tbl.Column(name)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float64, tbl.NumRows())
	for i := range out {
		out[i] = c.Float(i)
	}
	return out
}

func TestTPCDSkewShape(t *testing.T) {
	tbl := TPCDSkew(TPCDConfig{Rows: 20000, Seed: 1})
	if tbl.NumRows() != 20000 {
		t.Fatalf("rows = %d", tbl.NumRows())
	}
	for _, col := range []string{
		"l_orderkey", "l_partkey", "l_suppkey", "l_linenumber", "l_quantity",
		"l_extendedprice", "l_discount", "l_tax", "l_returnflag",
		"l_linestatus", "l_shipdate", "l_commitdate", "l_receiptdate",
	} {
		if !tbl.HasColumn(col) {
			t.Errorf("missing column %s", col)
		}
	}
}

func TestTPCDSkewDeterministic(t *testing.T) {
	a := TPCDSkew(TPCDConfig{Rows: 1000, Seed: 7})
	b := TPCDSkew(TPCDConfig{Rows: 1000, Seed: 7})
	pa := colFloats(t, a, "l_extendedprice")
	pb := colFloats(t, b, "l_extendedprice")
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatalf("row %d differs: %v vs %v", i, pa[i], pb[i])
		}
	}
}

func TestTPCDSkewZipfHead(t *testing.T) {
	tbl := TPCDSkew(TPCDConfig{Rows: 50000, Seed: 3, Zipf: 2})
	keys := colFloats(t, tbl, "l_orderkey")
	ones := 0
	for _, k := range keys {
		if k == 1 {
			ones++
		}
	}
	// With z=2 the top key should absorb a large fraction of rows.
	if frac := float64(ones) / float64(len(keys)); frac < 0.3 {
		t.Errorf("top orderkey share = %v, expected heavy Zipf head", frac)
	}
}

func TestTPCDSkewCorrelations(t *testing.T) {
	tbl := TPCDSkew(TPCDConfig{Rows: 50000, Seed: 5})
	price := colFloats(t, tbl, "l_extendedprice")
	qty := colFloats(t, tbl, "l_quantity")
	ship := colFloats(t, tbl, "l_shipdate")
	commit := colFloats(t, tbl, "l_commitdate")
	if c := stats.Correlation(price, qty); c < 0.5 {
		t.Errorf("corr(price, quantity) = %v, want strong positive", c)
	}
	if c := stats.Correlation(price, ship); c < 0.1 {
		t.Errorf("corr(price, shipdate) = %v, want positive (seasonal trend)", c)
	}
	if c := stats.Correlation(ship, commit); c < 0.95 {
		t.Errorf("corr(shipdate, commitdate) = %v, want near 1", c)
	}
}

func TestTPCDSkewValueDomains(t *testing.T) {
	tbl := TPCDSkew(TPCDConfig{Rows: 10000, Seed: 11})
	qty := tbl.MustColumn("l_quantity")
	for i := 0; i < tbl.NumRows(); i++ {
		if v := qty.Ints[i]; v < 1 || v > 50 {
			t.Fatalf("quantity %d out of TPC-D domain", v)
		}
	}
	disc := tbl.MustColumn("l_discount")
	for i := 0; i < tbl.NumRows(); i++ {
		if v := disc.Floats[i]; v < 0 || v > 0.10001 {
			t.Fatalf("discount %v out of domain", v)
		}
	}
	flags := tbl.MustColumn("l_returnflag")
	if len(flags.Dict) != 3 {
		t.Errorf("returnflag dict = %v", flags.Dict)
	}
}

func TestTPCDSkewRareGroup(t *testing.T) {
	tbl := TPCDSkew(TPCDConfig{Rows: 100000, Seed: 13})
	res, err := tbl.Execute(context.Background(), engine.Query{Func: Count, GroupBy: []string{"l_returnflag", "l_linestatus"}})
	if err != nil {
		t.Fatal(err)
	}
	var nf int
	for _, g := range res.Groups {
		if g.Key == "N|F" {
			nf = g.Rows
		}
	}
	if nf == 0 {
		t.Error("expected a small but nonempty N|F group")
	}
	if frac := float64(nf) / 100000; frac > 0.01 {
		t.Errorf("N|F group share = %v, expected rare", frac)
	}
}

// Count is re-exported for readability in this test file.
const Count = engine.Count

func TestBigBenchShape(t *testing.T) {
	tbl := BigBenchUserVisits(BigBenchConfig{Rows: 20000, Seed: 2})
	if tbl.NumRows() != 20000 {
		t.Fatalf("rows = %d", tbl.NumRows())
	}
	for _, col := range []string{"sourceIP", "visitDate", "adRevenue", "duration"} {
		if !tbl.HasColumn(col) {
			t.Errorf("missing column %s", col)
		}
	}
}

func TestBigBenchHeavyTail(t *testing.T) {
	tbl := BigBenchUserVisits(BigBenchConfig{Rows: 100000, Seed: 4})
	rev := colFloats(t, tbl, "adRevenue")
	mean := stats.Mean(rev)
	med := stats.Median(rev)
	if mean < med*1.1 {
		t.Errorf("mean %v vs median %v: expected right-skewed revenue", mean, med)
	}
	mx := rev[0]
	for _, v := range rev {
		if v > mx {
			mx = v
		}
	}
	if mx < 20*mean {
		t.Errorf("max %v vs mean %v: expected heavy tail", mx, mean)
	}
}

func TestBigBenchDurationRevenueCorrelation(t *testing.T) {
	tbl := BigBenchUserVisits(BigBenchConfig{Rows: 50000, Seed: 6})
	rev := colFloats(t, tbl, "adRevenue")
	dur := colFloats(t, tbl, "duration")
	if c := stats.Correlation(rev, dur); c < 0.2 {
		t.Errorf("corr(revenue, duration) = %v, want positive", c)
	}
}

func TestTLCTripShape(t *testing.T) {
	tbl := TLCTrip(TLCTripConfig{Rows: 20000, Seed: 8})
	for _, col := range []string{
		"Pickup_Date", "Pickup_Time", "vendor_name", "Fare_Amt", "Rate_Code",
		"Passenger_Count", "Dropoff_Date", "Dropoff_Time", "surcharge",
		"Tip_Amt", "Distance",
	} {
		if !tbl.HasColumn(col) {
			t.Errorf("missing column %s", col)
		}
	}
}

func TestTLCTripCorrelations(t *testing.T) {
	tbl := TLCTrip(TLCTripConfig{Rows: 50000, Seed: 9})
	dist := colFloats(t, tbl, "Distance")
	fare := colFloats(t, tbl, "Fare_Amt")
	tip := colFloats(t, tbl, "Tip_Amt")
	if c := stats.Correlation(dist, fare); c < 0.8 {
		t.Errorf("corr(distance, fare) = %v, want strong", c)
	}
	if c := stats.Correlation(fare, tip); c < 0.3 {
		t.Errorf("corr(fare, tip) = %v, want positive", c)
	}
}

func TestTLCTripInvariants(t *testing.T) {
	tbl := TLCTrip(TLCTripConfig{Rows: 10000, Seed: 10})
	pd := tbl.MustColumn("Pickup_Date").Ints
	dd := tbl.MustColumn("Dropoff_Date").Ints
	pt := tbl.MustColumn("Pickup_Time").Ints
	dt := tbl.MustColumn("Dropoff_Time").Ints
	fare := tbl.MustColumn("Fare_Amt").Floats
	for i := range pd {
		if dd[i] < pd[i] {
			t.Fatalf("row %d: dropoff date before pickup", i)
		}
		if dd[i] == pd[i] && dt[i] < pt[i] {
			t.Fatalf("row %d: dropoff time before pickup same day", i)
		}
		if fare[i] < 2.5 {
			t.Fatalf("row %d: fare %v below flag drop", i, fare[i])
		}
		if pt[i] < 0 || pt[i] >= 24*60 {
			t.Fatalf("row %d: pickup time %d out of range", i, pt[i])
		}
	}
}

func TestTLCTripNightSurcharge(t *testing.T) {
	tbl := TLCTrip(TLCTripConfig{Rows: 10000, Seed: 12})
	pt := tbl.MustColumn("Pickup_Time").Ints
	sur := tbl.MustColumn("surcharge").Floats
	for i := range pt {
		night := pt[i] >= 20*60 || pt[i] < 6*60
		if night && sur[i] != 0.5 {
			t.Fatalf("row %d: night trip without surcharge", i)
		}
		if !night && sur[i] != 0 {
			t.Fatalf("row %d: day trip with surcharge", i)
		}
	}
}
