package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterministic(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at draw %d", i)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/100 identical draws", same)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestRNGFloat64Mean(t *testing.T) {
	r := NewRNG(11)
	var m Moments
	for i := 0; i < 100000; i++ {
		m.Add(r.Float64())
	}
	if got := m.Mean(); math.Abs(got-0.5) > 0.01 {
		t.Errorf("uniform mean = %v, want ~0.5", got)
	}
	if got := m.Variance(); math.Abs(got-1.0/12) > 0.01 {
		t.Errorf("uniform variance = %v, want ~1/12", got)
	}
}

func TestRNGIntnBounds(t *testing.T) {
	r := NewRNG(3)
	seen := make(map[int]bool)
	for i := 0; i < 10000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d out of range", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Errorf("Intn(7) hit %d/7 values in 10k draws", len(seen))
	}
}

func TestRNGIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestRNGNormFloat64(t *testing.T) {
	r := NewRNG(5)
	var m Moments
	for i := 0; i < 200000; i++ {
		m.Add(r.NormFloat64())
	}
	if got := m.Mean(); math.Abs(got) > 0.01 {
		t.Errorf("normal mean = %v, want ~0", got)
	}
	if got := m.Variance(); math.Abs(got-1) > 0.02 {
		t.Errorf("normal variance = %v, want ~1", got)
	}
}

func TestRNGExpFloat64(t *testing.T) {
	r := NewRNG(5)
	var m Moments
	for i := 0; i < 200000; i++ {
		m.Add(r.ExpFloat64())
	}
	if got := m.Mean(); math.Abs(got-1) > 0.02 {
		t.Errorf("exponential mean = %v, want ~1", got)
	}
}

func TestRNGPermIsPermutation(t *testing.T) {
	r := NewRNG(9)
	f := func(nRaw uint8) bool {
		n := int(nRaw%64) + 1
		p := r.Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	r := NewRNG(123)
	c1 := r.Split()
	c2 := r.Split()
	same := 0
	for i := 0; i < 100; i++ {
		if c1.Uint64() == c2.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("split children produced %d/100 identical draws", same)
	}
}

// TestBinomialEdges: the cases Binomial answers without randomness
// (n = 0, p = 0, p = 1) consume none, p > ½ is the complement of the
// draw at 1 − p from the same stream, and bad arguments panic.
func TestBinomialEdges(t *testing.T) {
	r, twin := NewRNG(5), NewRNG(5)
	for _, tc := range []struct {
		n    int
		p    float64
		want int
	}{{0, 0.3, 0}, {0, 1, 0}, {40, 0, 0}, {40, 1, 40}, {3000, 1, 3000}} {
		if got := NewBinomial(tc.n, tc.p).Draw(r); got != tc.want {
			t.Errorf("Binomial(%d, %v) = %d, want %d", tc.n, tc.p, got, tc.want)
		}
	}
	if r.Uint64() != twin.Uint64() {
		t.Error("edge cases consumed randomness")
	}
	for _, tc := range []struct {
		n int
		p float64
	}{{3000, 0.9}, {3000, 0.998}, {65, 0.75}, {1, 0.6}} {
		a, b := NewRNG(9), NewRNG(9)
		if got, want := NewBinomial(tc.n, tc.p).Draw(a), tc.n-NewBinomial(tc.n, 1-tc.p).Draw(b); got != want {
			t.Errorf("Binomial(%d, %v) = %d, complement gives %d", tc.n, tc.p, got, want)
		}
	}
	for _, tc := range []struct {
		n int
		p float64
	}{{-1, 0.5}, {10, -0.1}, {10, 1.5}, {10, math.NaN()}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewBinomial(%d, %v) did not panic", tc.n, tc.p)
				}
			}()
			NewBinomial(tc.n, tc.p)
		}()
	}
}

// TestBinomialMoments: over 10⁵ draws the sample mean and variance sit
// within 5σ of np and np(1−p), with few expected successes and many,
// and through the complement.
func TestBinomialMoments(t *testing.T) {
	const draws = 100_000
	r := NewRNG(17)
	for _, tc := range []struct {
		n int
		p float64
	}{{3000, 0.002}, {3000, 0.3}, {3000, 0.9}, {65, 0.5}} {
		b := NewBinomial(tc.n, tc.p)
		var m Moments
		for i := 0; i < draws; i++ {
			k := b.Draw(r)
			if k < 0 || k > tc.n {
				t.Fatalf("Binomial(%d, %v) = %d", tc.n, tc.p, k)
			}
			m.Add(float64(k))
		}
		n, p := float64(tc.n), tc.p
		mean, variance := n*p, n*p*(1-p)
		// The fourth central moment gives the sample variance's spread.
		mu4 := variance * (1 + 3*(n-2)*p*(1-p))
		if se := math.Sqrt(variance / draws); math.Abs(m.Mean()-mean) > 5*se {
			t.Errorf("Binomial(%d, %v): mean %v, want %v ± %v", tc.n, tc.p, m.Mean(), mean, 5*se)
		}
		if se := math.Sqrt((mu4 - variance*variance) / draws); math.Abs(m.Variance()-variance) > 5*se {
			t.Errorf("Binomial(%d, %v): variance %v, want %v ± %v", tc.n, tc.p, m.Variance(), variance, 5*se)
		}
	}
}

// TestBinomialProbabilities: over 10⁵ draws each outcome of a small
// binomial turns up within 5σ of its probability, below and above ½.
func TestBinomialProbabilities(t *testing.T) {
	const draws = 100_000
	r := NewRNG(29)
	for _, tc := range []struct {
		n int
		p float64
	}{{12, 0.3}, {12, 0.7}, {3, 0.05}} {
		b := NewBinomial(tc.n, tc.p)
		counts := make([]float64, tc.n+1)
		for i := 0; i < draws; i++ {
			counts[b.Draw(r)]++
		}
		for k, c := range counts {
			lg, _ := math.Lgamma(float64(tc.n + 1))
			lk, _ := math.Lgamma(float64(k + 1))
			lr, _ := math.Lgamma(float64(tc.n - k + 1))
			pk := math.Exp(lg - lk - lr + float64(k)*math.Log(tc.p) + float64(tc.n-k)*math.Log1p(-tc.p))
			if se := math.Sqrt(draws * pk * (1 - pk)); math.Abs(c-draws*pk) > 5*se+1 {
				t.Errorf("Binomial(%d, %v): %v draws of %d, want %v ± %v", tc.n, tc.p, c, k, draws*pk, 5*se+1)
			}
		}
	}
}

// TestBinomialDeterministic: one seed, one stream of draws.
func TestBinomialDeterministic(t *testing.T) {
	a, b := NewRNG(23), NewRNG(23)
	for i := 0; i < 2000; i++ {
		n, p := 1+i%3000, float64(i%101)/100
		if x, y := NewBinomial(n, p).Draw(a), NewBinomial(n, p).Draw(b); x != y {
			t.Fatalf("draw %d: Binomial(%d, %v) gave %d and %d", i, n, p, x, y)
		}
	}
}
