package stats

import (
	"math"
	"slices"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// Variance returns the population variance of xs (dividing by n), or 0 for
// slices with fewer than one element. AQP variance formulas in the paper
// (Example 1) use the population form over the sample.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	m := Mean(xs)
	ss := 0.0
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(n)
}

// SampleVariance returns the unbiased sample variance (dividing by n-1),
// or 0 when n < 2.
func SampleVariance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	ss := 0.0
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(n-1)
}

// Covariance returns the population covariance of xs and ys. The two
// slices must have the same length; it panics otherwise.
func Covariance(xs, ys []float64) float64 {
	if len(xs) != len(ys) {
		panic("stats: Covariance length mismatch")
	}
	n := len(xs)
	if n == 0 {
		return 0
	}
	mx, my := Mean(xs), Mean(ys)
	s := 0.0
	for i := range xs {
		s += (xs[i] - mx) * (ys[i] - my)
	}
	return s / float64(n)
}

// Correlation returns the Pearson correlation coefficient of xs and ys, or
// 0 when either has zero variance.
func Correlation(xs, ys []float64) float64 {
	vx, vy := Variance(xs), Variance(ys)
	if vx == 0 || vy == 0 {
		return 0
	}
	return Covariance(xs, ys) / math.Sqrt(vx*vy)
}

// Moments accumulates count, mean and M2 (sum of squared deviations)
// incrementally using Welford's algorithm. The zero value is ready to use.
type Moments struct {
	n    int64
	mean float64
	m2   float64
	sum  float64
	min  float64
	max  float64
}

// Add folds x into the accumulator.
func (m *Moments) Add(x float64) {
	if m.n == 0 {
		m.min, m.max = x, x
	} else {
		if x < m.min {
			m.min = x
		}
		if x > m.max {
			m.max = x
		}
	}
	m.n++
	m.sum += x
	d := x - m.mean
	m.mean += d / float64(m.n)
	m.m2 += d * (x - m.mean)
}

// Count returns the number of observations.
func (m *Moments) Count() int64 { return m.n }

// Sum returns the running sum.
func (m *Moments) Sum() float64 { return m.sum }

// Mean returns the running mean, or 0 before any observation.
func (m *Moments) Mean() float64 { return m.mean }

// Variance returns the running population variance.
func (m *Moments) Variance() float64 {
	if m.n == 0 {
		return 0
	}
	return m.m2 / float64(m.n)
}

// SampleVariance returns the running unbiased variance (n-1 denominator).
func (m *Moments) SampleVariance() float64 {
	if m.n < 2 {
		return 0
	}
	return m.m2 / float64(m.n-1)
}

// Min returns the smallest observation, or 0 before any observation.
func (m *Moments) Min() float64 { return m.min }

// Max returns the largest observation, or 0 before any observation.
func (m *Moments) Max() float64 { return m.max }

// Merge combines another accumulator into m (parallel Welford merge).
func (m *Moments) Merge(o *Moments) {
	if o.n == 0 {
		return
	}
	if m.n == 0 {
		*m = *o
		return
	}
	n := m.n + o.n
	d := o.mean - m.mean
	m.m2 += o.m2 + d*d*float64(m.n)*float64(o.n)/float64(n)
	m.mean += d * float64(o.n) / float64(n)
	m.sum += o.sum
	if o.min < m.min {
		m.min = o.min
	}
	if o.max > m.max {
		m.max = o.max
	}
	m.n = n
}

// Median returns the median of xs without modifying it. It returns 0 for
// an empty slice. For even lengths it returns the mean of the two middle
// order statistics.
func Median(xs []float64) float64 {
	return Quantile(xs, 0.5)
}

// Quantile returns the q-th quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics. xs is not modified.
func Quantile(xs []float64, q float64) float64 {
	cp := slices.Clone(xs)
	slices.Sort(cp)
	return QuantileSorted(cp, q)
}

// QuantileSorted is Quantile over xs already sorted ascending. It
// neither copies nor sorts, so several quantiles of one slice cost one
// sort.
func QuantileSorted(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	if q <= 0 {
		return xs[0]
	}
	if q >= 1 {
		return xs[n-1]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return xs[lo]
	}
	frac := pos - float64(lo)
	return xs[lo]*(1-frac) + xs[hi]*frac
}
