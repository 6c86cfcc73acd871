// Package dataset generates the three datasets of the paper's evaluation
// at configurable scale: TPCD-Skew lineitem (Zipf-skewed TPC-D), BigBench
// UserVisits, and a TLCTrip-like NYC yellow-taxi table.
//
// The paper runs on 100-200 GB extracts (0.6-1.4 billion rows). Absolute
// scale does not change which method wins — the error behaviour is driven
// by selectivity, value skew, and attribute correlation — so these
// generators reproduce the schemas, the Zipf z=2 skew, the heavy tails,
// and the cross-attribute correlations at laptop-friendly row counts
// (documented as substitution #2 in DESIGN.md).
package dataset

import (
	"aqppp/internal/engine"
	"aqppp/internal/stats"
)

// TPCDConfig configures the TPCD-Skew lineitem generator.
type TPCDConfig struct {
	// Rows is the number of lineitem rows to generate.
	Rows int
	// Seed makes generation deterministic.
	Seed uint64
	// Zipf is the skew parameter z of the TPCD-Skew benchmark (the paper
	// uses z = 2).
	Zipf float64
	// Orders is the number of distinct l_orderkey values (scaled from the
	// paper's 1.5e8). Defaults to Rows/4 when zero.
	Orders int
	// Parts is the number of distinct l_partkey values. Defaults to
	// Rows/5 when zero.
	Parts int
	// Suppliers is the number of distinct l_suppkey values (paper:
	// 7.5e4). Defaults to Rows/40 when zero.
	Suppliers int
}

func (c *TPCDConfig) fillDefaults() {
	if c.Zipf == 0 {
		c.Zipf = 2
	}
	if c.Orders == 0 {
		c.Orders = max(c.Rows/4, 1)
	}
	if c.Parts == 0 {
		c.Parts = max(c.Rows/5, 1)
	}
	if c.Suppliers == 0 {
		c.Suppliers = max(c.Rows/40, 1)
	}
}

// TPCDSkew generates a lineitem table following the TPCD-Skew benchmark:
// key columns are Zipf(z)-distributed, quantities/discounts/taxes follow
// the TPC-D value domains, prices are correlated with quantity and carry a
// seasonal trend over l_shipdate (so that ship/commit dates are the
// "strongly correlated" attributes the paper picks for Figure 8), and the
// commit/receipt dates trail the ship date.
func TPCDSkew(cfg TPCDConfig) *engine.Table {
	cfg.fillDefaults()
	n := cfg.Rows
	r := stats.NewRNG(cfg.Seed)
	zOrder := stats.NewZipf(cfg.Orders, cfg.Zipf)
	zPart := stats.NewZipf(cfg.Parts, cfg.Zipf)
	zSupp := stats.NewZipf(cfg.Suppliers, cfg.Zipf)

	orderkey := make([]int64, n)
	partkey := make([]int64, n)
	suppkey := make([]int64, n)
	linenumber := make([]int64, n)
	quantity := make([]int64, n)
	extendedprice := make([]float64, n)
	discount := make([]float64, n)
	tax := make([]float64, n)
	returnflag := make([]string, n)
	linestatus := make([]string, n)
	shipdate := make([]int64, n)
	commitdate := make([]int64, n)
	receiptdate := make([]int64, n)

	const days = 2526 // TPC-D: 1992-01-01 .. 1998-12-01
	for i := 0; i < n; i++ {
		orderkey[i] = int64(zOrder.Draw(r))
		partkey[i] = int64(zPart.Draw(r))
		suppkey[i] = int64(zSupp.Draw(r))
		linenumber[i] = int64(r.Intn(7) + 1)
		quantity[i] = int64(r.Intn(50) + 1)

		ship := int64(r.Intn(days)) + 1
		shipdate[i] = ship
		commitdate[i] = ship + int64(r.Intn(61)) - 30 // commit within ±30 days
		if commitdate[i] < 1 {
			commitdate[i] = 1
		}
		receiptdate[i] = ship + int64(r.Intn(30)) + 1

		// Base price per unit drawn lognormal-ish; a seasonal multiplier
		// over the ship date injects the price↔date correlation used by
		// the hill-climbing experiment, and a heavy tail creates the
		// outliers that measure-biased sampling targets.
		unit := 900 + 100*r.NormFloat64()
		if unit < 1 {
			unit = 1
		}
		season := 1 + 0.5*float64(ship)/days // prices drift upward over time
		price := float64(quantity[i]) * unit * season
		if r.Float64() < 0.001 { // rare outliers, ~10x
			price *= 10
		}
		extendedprice[i] = price

		discount[i] = float64(r.Intn(11)) / 100 // 0.00 .. 0.10
		tax[i] = float64(r.Intn(9)) / 100       // 0.00 .. 0.08

		switch r.Intn(3) {
		case 0:
			returnflag[i] = "R"
		case 1:
			returnflag[i] = "A"
		default:
			returnflag[i] = "N"
		}
		// Make one (flag, status) combination rare so stratified sampling
		// has a tiny group to protect, mirroring the paper's "<N,F>" note.
		if returnflag[i] == "N" && r.Float64() < 0.995 {
			linestatus[i] = "O"
		} else if r.Intn(2) == 0 {
			linestatus[i] = "F"
		} else {
			linestatus[i] = "O"
		}
	}

	return engine.MustNewTable("lineitem",
		engine.NewIntColumn("l_orderkey", orderkey),
		engine.NewIntColumn("l_partkey", partkey),
		engine.NewIntColumn("l_suppkey", suppkey),
		engine.NewIntColumn("l_linenumber", linenumber),
		engine.NewIntColumn("l_quantity", quantity),
		engine.NewFloatColumn("l_extendedprice", extendedprice),
		engine.NewFloatColumn("l_discount", discount),
		engine.NewFloatColumn("l_tax", tax),
		engine.NewStringColumn("l_returnflag", returnflag),
		engine.NewStringColumn("l_linestatus", linestatus),
		engine.NewIntColumn("l_shipdate", shipdate),
		engine.NewIntColumn("l_commitdate", commitdate),
		engine.NewIntColumn("l_receiptdate", receiptdate),
	)
}
