package main

import (
	"math"
	"sort"
)

// sample is a set of observations of one quantity (latencies in ms,
// span durations in µs, ...). The zero value is empty and usable.
type sample struct {
	vals   []float64
	sorted bool
}

func (s *sample) add(v float64) {
	s.vals = append(s.vals, v)
	s.sorted = false
}

func (s *sample) n() int { return len(s.vals) }

// percentile returns the p-quantile (0 <= p <= 1) by linear
// interpolation between the two nearest order statistics, and 0 for an
// empty sample (a class that is not in the workload's mix).
func (s *sample) percentile(p float64) float64 {
	n := len(s.vals)
	if n == 0 {
		return 0
	}
	if !s.sorted {
		sort.Float64s(s.vals)
		s.sorted = true
	}
	pos := p * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return s.vals[lo]*(1-frac) + s.vals[hi]*frac
}

func (s *sample) median() float64 { return s.percentile(0.5) }

// supports reports whether the sample has at least ten observations
// beyond the p-quantile, the rule for the highest percentile a sample
// of this size can carry.
func (s *sample) supports(p float64) bool {
	return float64(len(s.vals))*(1-p) >= 10
}

// quartileSpread is the distance between the first and third quartile
// as a share of the median, with the quartiles taken the way Python's
// statistics.quantiles(values, n=4) takes them (exclusive method), so
// -repeat applies the same rule the benchmark's driver does.
func quartileSpread(values []float64) float64 {
	n := len(values)
	if n < 2 {
		return 0
	}
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	q := func(i int) float64 { // i-th of 4 cut points, exclusive method
		pos := float64(i) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return v[j-1] + frac*(v[j]-v[j-1])
	}
	med := medianOf(v)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / math.Abs(med)
}

func medianOf(values []float64) float64 {
	s := sample{vals: append([]float64(nil), values...)}
	return s.median()
}
