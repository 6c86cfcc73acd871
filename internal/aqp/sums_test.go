package aqp

import (
	"fmt"
	"math"
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

// gatherAll is a with-replacement resample gathered in full: every
// sample column at idx, with weights and stratum labels carried along.
func gatherAll(s *sample.Sample, idx []int) *sample.Sample {
	out := &sample.Sample{Kind: s.Kind, Table: s.Table.Gather(s.Table.Name+"_boot", idx), SourceRows: s.SourceRows}
	if s.InvP != nil {
		out.InvP = make([]float64, len(idx))
		for i, j := range idx {
			out.InvP[i] = s.InvP[j]
		}
	}
	if s.Strata != nil {
		out.Strata = append([]sample.Stratum(nil), s.Strata...)
		for i := range out.Strata {
			out.Strata[i].SampleRows = 0
		}
		out.StratumOf = make([]int, len(idx))
		for i, j := range idx {
			out.StratumOf[i] = s.StratumOf[j]
			out.Strata[s.StratumOf[j]].SampleRows++
		}
	}
	return out
}

// TestResampledKernelsEquivalence holds the bootstrap's gather-free
// replicate kernels to SumOfValues over the gathered resample: every
// lane of ResampledMeans for one to Lanes index vectors, and
// ResampledStratifiedSum, bit for bit on hostile values.
func TestResampledKernelsEquivalence(t *testing.T) {
	r := stats.NewRNG(0xb0b)
	for _, kind := range []sample.Kind{sample.Uniform, sample.MeasureBiased, sample.Stratified} {
		for _, n := range []int{0, 1, 2, 63, 64, 65, 3000} {
			s := equivalenceSample(kind, n, r)
			for lanes := 1; lanes <= Lanes; lanes++ {
				vals := equivalenceValues(n, r)
				idx := make([][]int, lanes)
				for l := range idx {
					idx[l] = make([]int, n)
					for i := range idx[l] {
						idx[l][i] = r.Intn(n)
					}
				}
				var got [Lanes]float64
				if kind == sample.Stratified {
					sums, counts := make([]float64, len(s.Strata)), make([]int64, len(s.Strata))
					for l, ix := range idx {
						got[l] = ResampledStratifiedSum(s, vals, ix, sums, counts)
					}
				} else {
					xs := make([]float64, n)
					PseudoValues(s, vals, xs)
					got = ResampledMeans(xs, idx)
				}
				for l, ix := range idx {
					rvals := make([]float64, n)
					for i, j := range ix {
						rvals[i] = vals[j]
					}
					if want := SumOfValues(gatherAll(s, ix), rvals, 0.95).Value; !sameBits(got[l], want) {
						t.Fatalf("%v n=%d lanes=%d lane %d: %v, gathered SumOfValues %v", kind, n, lanes, l, got[l], want)
					}
				}
			}
		}
	}
}
