package dataset

import (
	"math"

	"aqppp/internal/engine"
	"aqppp/internal/stats"
)

// BigBenchConfig configures the BigBench UserVisits generator.
type BigBenchConfig struct {
	// Rows is the number of visits.
	Rows int
	// Seed makes generation deterministic.
	Seed uint64
	// IPs is the number of distinct source IPs. Defaults to Rows/8.
	IPs int
}

// BigBenchUserVisits generates the UserVisits table of the AMPLab Big Data
// Benchmark: per-visit ad revenue with a heavy (Pareto-like) tail, a
// visit-date axis with weekly periodicity and a growth trend, visit
// durations correlated with revenue, and Zipf-popular source IPs.
// The paper's Figure 11(a) template is [SUM(adRevenue), visitDate,
// duration, sourceIP].
func BigBenchUserVisits(cfg BigBenchConfig) *engine.Table {
	n := cfg.Rows
	if cfg.IPs == 0 {
		cfg.IPs = max(n/8, 1)
	}
	r := stats.NewRNG(cfg.Seed)
	zIP := stats.NewZipf(cfg.IPs, 1.2)

	sourceIP := make([]int64, n)
	visitDate := make([]int64, n)
	adRevenue := make([]float64, n)
	duration := make([]int64, n)
	agent := make([]string, n)
	countryCode := make([]string, n)

	agents := []string{"chrome", "firefox", "safari", "edge", "opera"}
	countries := []string{"USA", "CHN", "IND", "BRA", "DEU", "GBR", "JPN", "CAN"}

	const days = 365 * 2
	for i := 0; i < n; i++ {
		sourceIP[i] = int64(zIP.Draw(r))
		// Traffic grows over time: later days are more likely.
		d := int64(float64(days) * pow(r.Float64(), 0.7))
		if d >= days {
			d = days - 1
		}
		visitDate[i] = d + 1

		// Revenue: lognormal body with a Pareto tail, scaled up on
		// weekends (visitDate%7 in {5,6}) — this couples adRevenue to
		// visitDate so precomputation placement matters.
		rev := math.Exp(0.5 * r.NormFloat64())
		if r.Float64() < 0.005 {
			rev *= 20 / math.Max(r.Float64(), 0.05) // heavy tail
		}
		if visitDate[i]%7 >= 5 {
			rev *= 1.8
		}
		adRevenue[i] = rev

		// Longer visits tend to earn more.
		duration[i] = int64(10 + 30*rev*r.Float64())
		if duration[i] > 3600 {
			duration[i] = 3600
		}
		agent[i] = agents[r.Intn(len(agents))]
		countryCode[i] = countries[r.Intn(len(countries))]
	}

	return engine.MustNewTable("uservisits",
		engine.NewIntColumn("sourceIP", sourceIP),
		engine.NewIntColumn("visitDate", visitDate),
		engine.NewFloatColumn("adRevenue", adRevenue),
		engine.NewIntColumn("duration", duration),
		engine.NewStringColumn("userAgent", agent),
		engine.NewStringColumn("countryCode", countryCode),
	)
}

func pow(x, p float64) float64 { return math.Pow(x, p) }
