// Package stats provides the statistical substrate for the AQP++
// reproduction: a deterministic random number generator, heavy-tailed
// generators (Zipf), normal quantiles for confidence intervals, moment
// accumulators, covariance, sample quantiles, and the latency histogram.
//
// Everything in this package is deterministic given a seed so that the
// experiment harness is reproducible run-to-run.
package stats

import "math"

// RNG is a small, fast, seedable pseudo-random number generator based on
// the PCG-XSH-RR 64/32 construction. It is not safe for concurrent use;
// create one per goroutine (see Split).
type RNG struct {
	state uint64
	inc   uint64
}

const pcgMultiplier = 6364136223846793005

// NewRNG returns a generator seeded with seed. Two generators with the same
// seed produce the same stream.
func NewRNG(seed uint64) *RNG {
	r := &RNG{inc: (seed << 1) | 1}
	r.state = seed + r.inc
	r.Uint32()
	return r
}

// Split derives an independent generator from r. The derived stream is
// deterministic given r's current state, so splitting at the same point in
// a program always yields the same child stream.
func (r *RNG) Split() *RNG {
	return &RNG{
		state: r.Uint64() | 1,
		inc:   r.Uint64() | 1,
	}
}

// Uint32 returns a uniformly distributed 32-bit value.
func (r *RNG) Uint32() uint32 {
	old := r.state
	r.state = old*pcgMultiplier + r.inc
	xorshifted := uint32(((old >> 18) ^ old) >> 27)
	rot := uint32(old >> 59)
	return (xorshifted >> rot) | (xorshifted << ((-rot) & 31))
}

// Uint64 returns a uniformly distributed 64-bit value.
func (r *RNG) Uint64() uint64 {
	return uint64(r.Uint32())<<32 | uint64(r.Uint32())
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn called with n <= 0")
	}
	return int(r.Uint64() % uint64(n))
}

// Int63n returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Int63n(n int64) int64 {
	if n <= 0 {
		panic("stats: Int63n called with n <= 0")
	}
	return int64(r.Uint64() % uint64(n))
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// NormFloat64 returns a standard normal variate using the Marsaglia polar
// method.
func (r *RNG) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// ExpFloat64 returns an exponential variate with rate 1.
func (r *RNG) ExpFloat64() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// Binomial is the Binomial(n, p) distribution, the number of successes
// in n independent trials that each succeed with probability p,
// prepared for repeated draws: the probability of its mode is computed
// once, here, not per draw. When p > ½ it draws the failures instead.
type Binomial struct {
	n, mode int
	p       float64 // the success probability drawn, ≤ ½
	fMode   float64 // the probability of mode
	flip    bool    // the draws count failures: the caller's p is 1 − p
}

// NewBinomial prepares Binomial(n, p). It panics if n < 0 or p is
// outside [0, 1].
func NewBinomial(n int, p float64) Binomial {
	if n < 0 || !(p >= 0 && p <= 1) {
		panic("stats: NewBinomial called with n < 0 or p outside [0, 1]")
	}
	b := Binomial{n: n, p: p}
	if p > 0.5 {
		b.p, b.flip = 1-p, true
	}
	if n == 0 || b.p <= 0 {
		return b
	}
	b.mode = int(float64(n+1) * b.p)
	lgN, _ := math.Lgamma(float64(n + 1))
	lgM, _ := math.Lgamma(float64(b.mode + 1))
	lgR, _ := math.Lgamma(float64(n - b.mode + 1))
	b.fMode = math.Exp(lgN - lgM - lgR + float64(b.mode)*math.Log(b.p) + float64(n-b.mode)*math.Log1p(-b.p))
	return b
}

// Draw returns one variate by inversion: it spends one uniform U on the
// probability of the mode, then of its neighbours alternately below and
// above, until U is used up. Visiting the outcomes in that fixed order
// is inversion all the same, and it is short, O(√(np)) steps, because
// the mass sits within a few standard deviations of the mode.
// Binomial(0, p), Binomial(n, 0) and Binomial(n, 1) consume no
// randomness.
func (b Binomial) Draw(r *RNG) int {
	k := 0
	if b.n > 0 && b.p > 0 {
		k = b.fromMode(r.Float64())
	}
	if b.flip {
		return b.n - k
	}
	return k
}

func (b Binomial) fromMode(u float64) int {
	n, p, q := b.n, b.p, 1-b.p
	u -= b.fMode
	lo, hi, fLo, fHi := b.mode, b.mode, b.fMode, b.fMode
	for u >= 0 && (lo > 0 || hi < n) {
		if lo > 0 {
			fLo *= float64(lo) / float64(n-lo+1) * q / p
			lo--
			if u -= fLo; u < 0 {
				return lo
			}
		}
		if hi < n {
			fHi *= float64(n-hi) / float64(hi+1) * p / q
			hi++
			if u -= fHi; u < 0 {
				return hi
			}
		}
	}
	// U exceeded the probabilities' rounded sum, an event of the order of
	// their rounding error.
	return b.mode
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle applies a Fisher-Yates shuffle over n elements using swap.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
