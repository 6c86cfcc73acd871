package aqp

import (
	"cmp"
	"fmt"
	"math"
	"os"
	"slices"
	"strconv"
	"testing"

	"aqppp/internal/engine"
	"aqppp/internal/sample"
	"aqppp/internal/stats"
)

// sumOfValuesOracle is SumOfValues as it was before the multi-lane
// kernel: one stats.Moments chain over the pseudo-values. SumsOfValues
// must reproduce it bit for bit.
func sumOfValuesOracle(s *sample.Sample, vals []float64, confidence float64) Estimate {
	lambda := stats.ZScore(confidence)
	if s.Kind == sample.Stratified {
		return stratifiedSum(s, vals, confidence, lambda)
	}
	n := len(vals)
	if n == 0 {
		return Estimate{Confidence: confidence}
	}
	var m stats.Moments
	for i, v := range vals {
		m.Add(v * s.InvP[i])
	}
	return Estimate{
		Value:      m.Mean(),
		HalfWidth:  lambda * math.Sqrt(m.Variance()/float64(n)),
		Confidence: confidence,
		SampleRows: n,
	}
}

// sameEstimate reports whether two estimates are identical bit for bit,
// except that any two NaNs match: when both operands of an addition or
// multiplication are NaN, amd64 keeps the first one's payload, and the
// compiler may order a commutative operation's operands either way, so
// which NaN payload survives is not a property of the arithmetic.
func sameEstimate(a, b Estimate) bool {
	return sameBits(a.Value, b.Value) && sameBits(a.HalfWidth, b.HalfWidth) &&
		sameBits(a.Confidence, b.Confidence) && a.SampleRows == b.SampleRows
}

func sameBits(x, y float64) bool {
	return math.Float64bits(x) == math.Float64bits(y) || (math.IsNaN(x) && math.IsNaN(y))
}

// equivalenceSample builds an n-row sample of the given kind with
// per-row weights shaped like the real samplers': a constant InvP
// (uniform), varying InvP (measure-biased), or three strata of unequal
// source sizes (stratified).
func equivalenceSample(kind sample.Kind, n int, r *stats.RNG) *sample.Sample {
	tbl := engine.MustNewTable("t", engine.NewIntColumn("k", make([]int64, n)))
	s := &sample.Sample{Kind: kind, Table: tbl, SourceRows: 100 * (n + 1)}
	switch kind {
	case sample.Uniform:
		s.InvP = make([]float64, n)
		for i := range s.InvP {
			s.InvP[i] = float64(s.SourceRows)
		}
	case sample.MeasureBiased:
		s.InvP = make([]float64, n)
		for i := range s.InvP {
			s.InvP[i] = 1 + r.Float64()*1e4
		}
	default:
		s.Strata = []sample.Stratum{{Key: "a", SourceRows: 10 * n}, {Key: "b", SourceRows: n + 5}, {Key: "c", SourceRows: 3}}
		s.StratumOf = make([]int, n)
		for i := range s.StratumOf {
			h := r.Intn(3)
			s.StratumOf[i] = h
			s.Strata[h].SampleRows++
		}
	}
	return s
}

// equivalenceValues draws one value vector mixing zeros (rows outside a
// predicate), ordinary measures, negatives (diff vectors) and the values
// where float arithmetic is fragile: ±0, subnormals, huge magnitudes,
// ±Inf and NaN. Vectors with special values appear only sometimes, so
// most lanes carry finite estimates worth comparing.
func equivalenceValues(n int, r *stats.RNG) []float64 {
	special := []float64{math.Copysign(0, -1), math.SmallestNonzeroFloat64, 1e300, -1e300, math.Inf(1), math.Inf(-1), math.NaN()}
	hostile := r.Intn(4) == 0
	v := make([]float64, n)
	for i := range v {
		switch k := r.Intn(10); {
		case k < 3:
			v[i] = 0
		case k < 7:
			v[i] = 100 + 30*r.NormFloat64()
		case k < 9:
			v[i] = -(100 + 30*r.NormFloat64())
		case hostile:
			v[i] = special[r.Intn(len(special))]
		default:
			v[i] = r.Float64() * 1e6
		}
	}
	return v
}

// TestSumsOfValuesEquivalence holds the multi-lane kernel to the serial
// Moments chain it replaced: every lane of every batch width, over every
// sample kind and the row counts around a 64-row word, must produce the
// oracle's Estimate bit for bit — as must the one-lane SumOfValues.
func TestSumsOfValuesEquivalence(t *testing.T) {
	r := stats.NewRNG(0x5a5a)
	for _, kind := range []sample.Kind{sample.Uniform, sample.MeasureBiased, sample.Stratified} {
		for _, n := range []int{0, 1, 63, 64, 65, 3000} {
			s := equivalenceSample(kind, n, r)
			for lanes := 1; lanes <= 9; lanes++ {
				t.Run(fmt.Sprintf("%v/n=%d/lanes=%d", kind, n, lanes), func(t *testing.T) {
					vals := make([][]float64, lanes)
					for j := range vals {
						vals[j] = equivalenceValues(n, r)
					}
					for _, conf := range []float64{0.95, 0.9} {
						out := make([]Estimate, lanes)
						SumsOfValues(s, vals, conf, out)
						for j, v := range vals {
							want := sumOfValuesOracle(s, v, conf)
							if !sameEstimate(out[j], want) {
								t.Fatalf("lane %d conf %v: SumsOfValues = %+v, oracle %+v", j, conf, out[j], want)
							}
							if got := SumOfValues(s, v, conf); !sameEstimate(got, want) {
								t.Fatalf("lane %d conf %v: SumOfValues = %+v, oracle %+v", j, conf, got, want)
							}
						}
					}
				})
			}
		}
	}
}

func TestSumsOfValuesShortOutPanics(t *testing.T) {
	tbl := buildTable(10, 15)
	s, _ := sample.NewUniform(tbl, 1, 19)
	v := make([]float64, s.Size())
	defer func() {
		if recover() == nil {
			t.Fatal("short out slice did not panic")
		}
	}()
	SumsOfValues(s, [][]float64{v, v}, 0.95, make([]Estimate, 1))
}

// bootstrapReplicates is the replicate count of the distributional bootstrap
// tests: def, or AQPPP_BOOTSTRAP_REPLICATES when set (the nightly run
// raises it).
func bootstrapReplicates(def int) int {
	if r, err := strconv.Atoi(os.Getenv("AQPPP_BOOTSTRAP_REPLICATES")); err == nil && r > 0 {
		return r
	}
	return def
}

// gatheredReplicate is one bootstrap replicate the O(n) way: it draws
// every row of the resample (within its stratum, on a stratified
// sample), gathers the drawn rows' values and weights, and estimates
// the gathered resample with SumOfValues.
func gatheredReplicate(s *sample.Sample, vals []float64, byStratum [][]int, r *stats.RNG) float64 {
	n := len(vals)
	rv := make([]float64, n)
	rs := *s
	if s.Kind == sample.Stratified {
		// Row i's stand-in comes from row i's stratum, so the strata and
		// their sizes are s's own.
		for i, h := range s.StratumOf {
			rows := byStratum[h]
			rv[i] = vals[rows[r.Intn(len(rows))]]
		}
		return SumOfValues(&rs, rv, 0.95).Value
	}
	rs.InvP = make([]float64, n)
	for i := range rv {
		j := r.Intn(n)
		rv[i], rs.InvP[i] = vals[j], s.InvP[j]
	}
	return SumOfValues(&rs, rv, 0.95).Value
}

// ksDistance is the two-sample Kolmogorov–Smirnov statistic: the largest
// gap between the empirical CDFs of a and b, which it sorts. NaN counts
// as one value below all others (cmp.Compare's order), so non-finite
// replicates are compared too.
func ksDistance(a, b []float64) float64 {
	slices.SortFunc(a, cmp.Compare[float64])
	slices.SortFunc(b, cmp.Compare[float64])
	d, i, j := 0.0, 0, 0
	for i < len(a) && j < len(b) {
		x := a[i]
		if cmp.Compare(b[j], x) < 0 {
			x = b[j]
		}
		for i < len(a) && cmp.Compare(a[i], x) == 0 {
			i++
		}
		for j < len(b) && cmp.Compare(b[j], x) == 0 {
			j++
		}
		d = max(d, math.Abs(float64(i)/float64(len(a))-float64(j)/float64(len(b))))
	}
	return d
}

// coarse maps a replicate to the value the KS test compares. It drops
// the low 24 bits of a finite v's significand: two ways of summing the
// same draws differ in their last bits, which would split one atom of a
// discrete replicate distribution in two, and coarse merges them again
// while staying monotone, which keeps the test valid. Every non-finite
// v becomes NaN: SumOfValues's mean recurrence turns a drawn ±Inf into
// NaN at the next row (Inf − Inf), where the kernel's sum keeps ±Inf.
func coarse(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return math.NaN()
	}
	return math.Float64frombits(math.Float64bits(v) &^ (1<<24 - 1))
}

// TestResampledKernelsEquivalence holds the bootstrap's support-only
// replicate kernel (Resampler) to the gathered O(n) resample in
// distribution: a two-sample KS test at α = 0.001 over the replicates
// of both, for every sampler, sample sizes 1, 2, 65 and 3000, a support
// of no rows, one, a few and all, with and without NaN/±Inf rows.
func TestResampledKernelsEquivalence(t *testing.T) {
	reps := bootstrapReplicates(500)
	// c(α) = √(−ln(α/2)/2) at α = 0.001, for two samples of reps each.
	crit := math.Sqrt(-math.Log(0.001/2)/2) * math.Sqrt(2/float64(reps))
	r := stats.NewRNG(0xb0b)
	for _, kind := range []sample.Kind{sample.Uniform, sample.MeasureBiased, sample.Stratified} {
		for _, n := range []int{1, 2, 65, 3000} {
			s := equivalenceSample(kind, n, r)
			byStratum := make([][]int, len(s.Strata))
			for i, h := range s.StratumOf {
				byStratum[h] = append(byStratum[h], i)
			}
			for _, support := range slices.Compact([]int{0, 1, min(5, n), n}) {
				for _, hostile := range []bool{false, true} {
					if hostile && support == 0 {
						continue
					}
					vals := make([]float64, n)
					for k, i := range r.Perm(n)[:support] {
						vals[i] = (100 + 30*r.NormFloat64()) * float64(1-2*r.Intn(2))
						if hostile && k < 2 {
							vals[i] = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[r.Intn(3)]
						}
					}
					rs := NewResampler(s, vals)
					got, want := make([]float64, reps), make([]float64, reps)
					for i := range got {
						got[i] = coarse(rs.Replicate(r))
						want[i] = coarse(gatheredReplicate(s, vals, byStratum, r))
					}
					if d := ksDistance(got, want); d > crit {
						t.Errorf("%v n=%d support=%d hostile=%v: KS distance %.4f > %.4f (medians %v, %v)",
							kind, n, support, hostile, d, crit, got[reps/2], want[reps/2])
					}
				}
			}
		}
	}
}
