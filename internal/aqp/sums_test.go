package aqp

import (
	"cmp"
	"fmt"
	"math"
	"math/big"
	"os"
	"slices"
	"strconv"
	"testing"

	"aqppp/internal/engine"
	"aqppp/internal/sample"
	"aqppp/internal/stats"
)

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

// testLane is a lane together with its dense form: vals[i] is row i's
// v_i, the value the kernel must read off the selections.
type testLane struct {
	Lane
	vals    []float64
	support int
}

// randomLane draws a lane over n rows whose support is the given number
// of rows, each in Plus or in Minus alone. Other rows are in neither or
// in both, so they contribute 0 whatever their a_i; a_i is drawn by
// measure, and a COUNT lane (no column) is drawn one time in four.
func randomLane(n, support int, r *stats.RNG, measure func() float64) testLane {
	plus, minus := engine.NewBitset(n), engine.NewBitset(n)
	a := make([]float64, n)
	for i := range a {
		a[i] = measure()
	}
	count := r.Intn(4) == 0
	l := testLane{vals: make([]float64, n), support: support}
	for k, i := range r.Perm(n) {
		switch {
		case k < support && r.Intn(2) == 0:
			plus.Set(i)
			l.vals[i] = 1
		case k < support:
			minus.Set(i)
			l.vals[i] = -1
		case r.Intn(3) == 0:
			plus.Set(i)
			minus.Set(i)
		}
		if !count {
			l.vals[i] *= a[i]
		}
	}
	l.Plus, l.Minus = plus.Words(), minus.Words()
	if !count {
		l.Col = engine.NewFloatColumn("a", a)
	}
	return l
}

// finiteMeasure draws a_i: ordinary measures, negatives, zeros of both
// signs, subnormals and magnitudes from 1e-100 to 1e100, bounded so
// that every square the kernel forms stays finite.
func finiteMeasure(r *stats.RNG) func() float64 {
	return func() float64 {
		switch k := r.Intn(12); {
		case k < 6:
			return 100 + 30*r.NormFloat64()
		case k < 8:
			return -(100 + 30*r.NormFloat64())
		case k == 8:
			return []float64{0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -5e-324 * 7}[r.Intn(4)]
		default:
			return r.NormFloat64() * math.Pow(10, float64(r.Intn(201)-100))
		}
	}
}

// oracle is the kernel's estimate of dense values v evaluated in
// 256-bit floats, with the bound each float64 result must meet: the
// rounding of the kernel's summation and deviation passes, bounded by
// (terms + 2)·ε·Σ|term| per sum, plus n·δ² where a mean off by δ shifts
// the deviations.
type oracle struct {
	value, halfWidth       float64
	valueTol, halfWidthTol float64
	support                int
}

const prec = 256

func bf(x float64) *big.Float { return new(big.Float).SetPrec(prec).SetFloat64(x) }

func bfInt(n int) *big.Float { return new(big.Float).SetPrec(prec).SetInt64(int64(n)) }

func add(a, b *big.Float) *big.Float { return new(big.Float).SetPrec(prec).Add(a, b) }
func sub(a, b *big.Float) *big.Float { return new(big.Float).SetPrec(prec).Sub(a, b) }
func mul(a, b *big.Float) *big.Float { return new(big.Float).SetPrec(prec).Mul(a, b) }
func quo(a, b *big.Float) *big.Float { return new(big.Float).SetPrec(prec).Quo(a, b) }
func abs(a *big.Float) *big.Float    { return new(big.Float).SetPrec(prec).Abs(a) }

func f64(x *big.Float) float64 {
	v, _ := x.Float64()
	return v
}

// group is one stratum's rows (the whole sample on an unstratified one)
// with the factor its sum is scaled by and the one its variance is.
type group struct {
	x                  []*big.Float // every row's term, zeros included
	valueScale, varMul *big.Float
}

// newOracle evaluates the estimate of l's values on s.
func newOracle(s *sample.Sample, l testLane, conf float64) oracle {
	v := l.vals
	n := len(v)
	eps := bf(0x1p-52)
	var groups []group
	if s.Kind == sample.Stratified {
		groups = make([]group, len(s.Strata))
		for i, x := range v {
			g := &groups[s.StratumOf[i]]
			g.x = append(g.x, bf(x))
		}
		for h, st := range s.Strata {
			nh := len(groups[h].x)
			if nh == 0 {
				continue
			}
			N := bfInt(st.SourceRows)
			fpc := sub(bf(1), quo(bfInt(nh), N))
			if fpc.Sign() < 0 {
				fpc = bf(0)
			}
			groups[h].valueScale = quo(N, bfInt(nh))
			// N²·(m2/nh)/nh·fpc: the per-stratum variance term.
			groups[h].varMul = quo(mul(mul(N, N), fpc), mul(bfInt(nh), bfInt(nh)))
		}
	} else if n > 0 {
		g := group{valueScale: quo(bf(1), bfInt(n)), varMul: quo(bf(1), mul(bfInt(n), bfInt(n)))}
		for i, x := range v {
			g.x = append(g.x, mul(bf(x), bf(s.InvP[i])))
		}
		groups = []group{g}
	}
	o := oracle{support: l.support}
	value, valueTol, variance, varianceTol := bf(0), bf(0), bf(0), bf(0)
	for _, g := range groups {
		nh := len(g.x)
		if nh == 0 {
			continue
		}
		sum, sumAbs := bf(0), bf(0)
		for _, x := range g.x {
			sum, sumAbs = add(sum, x), add(sumAbs, abs(x))
		}
		term := mul(g.valueScale, sum)
		value = add(value, term)
		// The stratum's sum, its scaling, and its place in the total.
		sumTol := mul(bfInt(nh+2), mul(eps, sumAbs))
		valueTol = add(valueTol, add(mul(g.valueScale, sumTol), mul(bfInt(4), mul(eps, abs(term)))))
		mean := quo(sum, bfInt(nh))
		delta := quo(sumTol, bfInt(nh))
		m2, spread := bf(0), bf(0)
		for _, x := range g.x {
			d := sub(x, mean)
			m2 = add(m2, mul(d, d))
			w := add(abs(x), abs(mean))
			spread = add(spread, mul(w, w))
		}
		variance = add(variance, mul(g.varMul, m2))
		m2Tol := add(mul(bfInt(nh), mul(delta, delta)), mul(bfInt(4*(nh+2)), mul(eps, spread)))
		varianceTol = add(varianceTol, mul(g.varMul, add(m2Tol, mul(bfInt(4), mul(eps, m2)))))
	}
	valueTol = add(valueTol, mul(bfInt(len(groups)+2), mul(eps, abs(value))))
	varianceTol = add(varianceTol, mul(bfInt(len(groups)+2), mul(eps, variance)))
	lambda := stats.ZScore(conf)
	o.value, o.valueTol = f64(value), f64(valueTol)
	o.halfWidth = lambda * math.Sqrt(f64(variance))
	o.halfWidthTol = lambda*math.Sqrt(f64(varianceTol)) + 8*ulp(o.halfWidth) + math.SmallestNonzeroFloat64
	o.valueTol += 2*ulp(o.value) + math.SmallestNonzeroFloat64
	return o
}

func ulp(x float64) float64 {
	x = math.Abs(x)
	return math.Nextafter(x, math.Inf(1)) - x
}

// check compares one kernel estimate with the oracle's.
func (o oracle) check(est Estimate, support int) error {
	if support != o.support {
		return fmt.Errorf("support %d, want %d", support, o.support)
	}
	if d := math.Abs(est.Value - o.value); !(d <= o.valueTol) {
		return fmt.Errorf("value %v, oracle %v (off %g, bound %g)", est.Value, o.value, d, o.valueTol)
	}
	if d := math.Abs(est.HalfWidth - o.halfWidth); !(d <= o.halfWidthTol) {
		return fmt.Errorf("half-width %v, oracle %v (off %g, bound %g)", est.HalfWidth, o.halfWidth, d, o.halfWidthTol)
	}
	return nil
}

// TestSumsOfValuesEquivalence holds the support kernel (Estimator.Total)
// to a 256-bit evaluation of the same moments on finite values: for
// every sampler and n ∈ {0, 1, 63, 64, 65, 3000}, lanes=k estimates k
// lanes in turn on one Estimator (which reuses its per-stratum scratch)
// with supports of no row, one, a few, all and a random count, with
// and without a measure column, at two confidence levels. The value,
// the half-width and the returned support must match the oracle.
func TestSumsOfValuesEquivalence(t *testing.T) {
	r := stats.NewRNG(0x5a5a)
	for _, kind := range []sample.Kind{sample.Uniform, sample.MeasureBiased, sample.Stratified} {
		for _, n := range []int{0, 1, 63, 64, 65, 3000} {
			s := equivalenceSample(kind, n, r)
			for lanes := 1; lanes <= 9; lanes++ {
				t.Run(fmt.Sprintf("%v/n=%d/lanes=%d", kind, n, lanes), func(t *testing.T) {
					for _, conf := range []float64{0.95, 0.9} {
						e := NewEstimator(s, conf)
						for j := 0; j < lanes; j++ {
							support := min([]int{0, 1, 5, n, r.Intn(n + 1)}[(j+lanes)%5], n)
							l := randomLane(n, support, r, finiteMeasure(r))
							est, got := e.Total(l.Lane)
							if err := newOracle(s, l, conf).check(est, got); err != nil {
								t.Fatalf("lane %d (support %d), conf %v: %v", j, support, conf, err)
							}
							if est.Confidence != conf || est.SampleRows != n {
								t.Fatalf("lane %d: %+v", j, est)
							}
						}
					}
				})
			}
		}
	}
}

// TestSupportEstimateClasses pins what the kernel does with the value
// classes where float arithmetic is fragile, on every sampler:
//   - ±0 and subnormal values estimate within the oracle's bound;
//   - a row whose a_i is ±Inf or NaN but which is in both Plus and
//     Minus is outside the support, so the estimate stays finite (q and
//     pre cancel by set difference, not by ∞ − ∞);
//   - a +Inf (−Inf) in the support makes the value +Inf (−Inf), as the
//     exact scan's SUM does, and the half-width is not finite;
//   - +Inf with −Inf, or a NaN, makes the value NaN.
func TestSupportEstimateClasses(t *testing.T) {
	r := stats.NewRNG(0xc1a5)
	inf := math.Inf(1)
	for _, kind := range []sample.Kind{sample.Uniform, sample.MeasureBiased, sample.Stratified} {
		s := equivalenceSample(kind, 130, r)
		e := NewEstimator(s, 0.95)
		for _, special := range [][]float64{
			{0, math.Copysign(0, -1)},
			{math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1022},
		} {
			l := randomLane(130, 40, r, func() float64 { return special[r.Intn(len(special))] })
			est, got := e.Total(l.Lane)
			if err := newOracle(s, l, 0.95).check(est, got); err != nil {
				t.Errorf("%v, values %v: %v", kind, special, err)
			}
		}
		for _, tc := range []struct {
			name     string
			plus     []float64 // a_i set on rows 0, 1, … in Plus alone
			both     float64   // a_i of row 100, in Plus and Minus
			want     float64   // the value's class: ±Inf, NaN, or 0 for finite
			finiteHW bool
		}{
			{"cancelled +Inf", []float64{1, 2}, inf, 0, true},
			{"cancelled NaN", []float64{1, 2}, math.NaN(), 0, true},
			{"+Inf", []float64{1, inf, 2}, 0, inf, false},
			{"-Inf", []float64{1, -inf}, 0, -inf, false},
			{"+Inf and -Inf", []float64{inf, -inf}, 0, math.NaN(), false},
			{"NaN", []float64{1, math.NaN()}, 0, math.NaN(), false},
		} {
			a := make([]float64, 130)
			plus, minus := engine.NewBitset(130), engine.NewBitset(130)
			for i, v := range tc.plus {
				a[i] = v
				plus.Set(i)
			}
			a[100] = tc.both
			plus.Set(100)
			minus.Set(100)
			est, support := e.Total(Lane{Plus: plus.Words(), Minus: minus.Words(), Col: engine.NewFloatColumn("a", a)})
			if support != len(tc.plus) {
				t.Errorf("%v %s: support %d, want %d", kind, tc.name, support, len(tc.plus))
			}
			switch {
			case math.IsNaN(tc.want):
				if !math.IsNaN(est.Value) {
					t.Errorf("%v %s: value %v, want NaN", kind, tc.name, est.Value)
				}
			case math.IsInf(tc.want, 0):
				if est.Value != tc.want {
					t.Errorf("%v %s: value %v, want %v", kind, tc.name, est.Value, tc.want)
				}
			default:
				if math.IsInf(est.Value, 0) || math.IsNaN(est.Value) {
					t.Errorf("%v %s: value %v, want finite", kind, tc.name, est.Value)
				}
			}
			if finite := !math.IsInf(est.HalfWidth, 0) && !math.IsNaN(est.HalfWidth); finite != tc.finiteHW {
				t.Errorf("%v %s: half-width %v", kind, tc.name, est.HalfWidth)
			}
		}
	}
}

// FuzzSupportEstimate holds the kernel to the 256-bit oracle on lanes
// the fuzzer shapes: the sampler, the row count (up to 3,000), the
// support, the data seed and the magnitude of the measures.
func FuzzSupportEstimate(f *testing.F) {
	f.Add(uint64(1), uint16(64), uint8(0), uint16(5), int8(0))
	f.Add(uint64(2), uint16(65), uint8(1), uint16(65), int8(90))
	f.Add(uint64(3), uint16(3000), uint8(2), uint16(30), int8(-90))
	f.Add(uint64(4), uint16(1), uint8(2), uint16(1), int8(3))
	f.Add(uint64(5), uint16(0), uint8(0), uint16(0), int8(0))
	f.Fuzz(func(t *testing.T, seed uint64, nRaw uint16, kindRaw uint8, supportRaw uint16, exp int8) {
		r := stats.NewRNG(seed)
		n := int(nRaw) % 3001
		kind := []sample.Kind{sample.Uniform, sample.MeasureBiased, sample.Stratified}[kindRaw%3]
		s := equivalenceSample(kind, n, r)
		scale := math.Pow(10, float64(int(exp)%101))
		l := randomLane(n, int(supportRaw)%(n+1), r, func() float64 { return r.NormFloat64() * scale })
		e := NewEstimator(s, 0.95)
		est, support := e.Total(l.Lane)
		if err := newOracle(s, l, 0.95).check(est, support); err != nil {
			t.Fatalf("%v n=%d: %v", kind, n, err)
		}
	})
}

// TestSumOfValuesLengthPanic: a lane whose selections cover fewer rows
// than the sample is a programmer error, and the kernel panics on it.
func TestSumOfValuesLengthPanic(t *testing.T) {
	tbl := buildTable(200, 14)
	s, _ := sample.NewUniform(tbl, 0.5, 18)
	defer func() {
		if recover() == nil {
			t.Fatal("short lane did not panic")
		}
	}()
	e := NewEstimator(s, 0.95)
	e.Total(Lane{Plus: []uint64{1}})
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

// denseValue is the point estimate of dense values v on s — mean(v·InvP)
// or Σ_h N_h/n_h·Σ_{i∈h} v_i — summed row by row.
func denseValue(s *sample.Sample, v []float64) float64 {
	if s.Kind != sample.Stratified {
		sum := 0.0
		for i, x := range v {
			sum += x * s.InvP[i]
		}
		return sum / float64(len(v))
	}
	sums, rows := make([]float64, len(s.Strata)), make([]int, len(s.Strata))
	for i, x := range v {
		sums[s.StratumOf[i]] += x
		rows[s.StratumOf[i]]++
	}
	est := 0.0
	for h, st := range s.Strata {
		if rows[h] > 0 {
			est += float64(st.SourceRows) / float64(rows[h]) * sums[h]
		}
	}
	return est
}

// gatheredReplicate is one bootstrap replicate the O(n) way: it draws
// every row of the resample (within its stratum, on a stratified
// sample), gathers the drawn rows' values and weights, and estimates
// the gathered resample densely.
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
		return denseValue(&rs, rv)
	}
	rs.InvP = make([]float64, n)
	for i := range rv {
		j := r.Intn(n)
		rv[i], rs.InvP[i] = vals[j], s.InvP[j]
	}
	return denseValue(&rs, rv)
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
// v becomes NaN: summed in a different order, draws of +Inf and −Inf
// give ±Inf in one sum and NaN in the other.
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
			all := engine.NewBitset(n)
			all.SetAll()
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
					rs := NewResampler(s, Lane{Plus: all.Words(), Col: engine.NewFloatColumn("v", vals)})
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
