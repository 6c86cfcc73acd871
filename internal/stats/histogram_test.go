package stats

import (
	"math"
	"sync"
	"testing"
	"time"
)

// TestHistogramBucketing puts one observation in the middle of every
// bucket's bounds and expects it back in that bucket.
func TestHistogramBucketing(t *testing.T) {
	var h LatencyHistogram
	var want time.Duration
	for i := 0; i < LatencyBuckets; i++ {
		ge, lt := LatencyBucketBoundsUS(i)
		if i == LatencyBuckets-1 {
			lt = 2 * ge
		}
		d := time.Duration((ge + lt) / 2 * float64(time.Microsecond))
		h.Observe(d)
		want += d
	}
	s := h.Snapshot()
	for i, n := range s.Counts {
		if n != 1 {
			t.Errorf("bucket %d count = %d, want 1", i, n)
		}
	}
	if s.Count != LatencyBuckets || s.Sum != want {
		t.Errorf("Count, Sum = %d, %v; want %d, %v", s.Count, s.Sum, LatencyBuckets, want)
	}
}

// TestHistogramClamping pins both ends: sub-microsecond observations
// count (and sum) as 1µs, and the last bucket absorbs the whole tail.
func TestHistogramClamping(t *testing.T) {
	var h LatencyHistogram
	h.Observe(0)
	h.Observe(-time.Second)
	h.Observe(time.Second) // the nominal right edge
	h.Observe(5 * time.Second)
	s := h.Snapshot()
	if s.Counts[0] != 2 || s.Counts[LatencyBuckets-1] != 2 || s.Count != 4 {
		t.Errorf("counts = %v (total %d), want 2 in the first and 2 in the last bucket", s.Counts, s.Count)
	}
	if want := 2*time.Microsecond + 6*time.Second; s.Sum != want {
		t.Errorf("Sum = %v, want %v", s.Sum, want)
	}
}

// TestLatencyBucketBounds pins the format: quarter-decade bounds from
// 1µs, contiguous, and no upper bound on the clamp bucket.
func TestLatencyBucketBounds(t *testing.T) {
	prevLT := 1.0
	for i := 0; i < LatencyBuckets; i++ {
		ge, lt := LatencyBucketBoundsUS(i)
		if ge != prevLT {
			t.Errorf("bucket %d starts at %v, previous ended at %v", i, ge, prevLT)
		}
		if i < LatencyBuckets-1 && math.Abs(lt/ge-math.Pow(10, 0.25)) > 1e-12 {
			t.Errorf("bucket %d spans [%v, %v), want a quarter decade", i, ge, lt)
		}
		prevLT = lt
	}
	if !math.IsInf(prevLT, 1) {
		t.Errorf("clamp bucket upper bound = %v, want +Inf", prevLT)
	}
	if ge, _ := LatencyBucketBoundsUS(LatencyBuckets - 1); math.Abs(ge-562341.325) > 0.01 {
		t.Errorf("clamp bucket starts at %vµs, want ~562341.33", ge)
	}
}

// TestLatencyHistogramConcurrent is the type's race test: writers
// observe while a reader snapshots. Every snapshot is internally
// consistent and monotone, none aliases live storage, and the final one
// accounts for every observation.
func TestLatencyHistogramConcurrent(t *testing.T) {
	const writers, perWriter = 8, 2000
	var h LatencyHistogram
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				h.Observe(time.Duration(1+i%4000) * time.Microsecond)
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	var prev LatencySnapshot
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		s := h.Snapshot()
		var total int64
		for i, n := range s.Counts {
			total += n
			if n < prev.Counts[i] {
				t.Fatalf("bucket %d went backwards: %d after %d", i, n, prev.Counts[i])
			}
		}
		if total != s.Count {
			t.Fatalf("Σ counts = %d, Count = %d", total, s.Count)
		}
		prev = s
	}
	// Checked after one more Observe: a snapshot aliasing live storage
	// would read it.
	h.Observe(time.Millisecond)
	var wantSum time.Duration
	for i := 0; i < perWriter; i++ {
		wantSum += time.Duration(1+i%4000) * time.Microsecond
	}
	if prev.Count != writers*perWriter || prev.Sum != writers*wantSum {
		t.Errorf("final Count, Sum = %d, %v; want %d, %v", prev.Count, prev.Sum, writers*perWriter, writers*wantSum)
	}
}
