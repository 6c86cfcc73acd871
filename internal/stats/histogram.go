package stats

import (
	"math"
	"sync/atomic"
	"time"
)

// The latency-histogram format, owned here and nowhere else: buckets
// are fixed-width over log10(latency in µs) on [0, 6), so 24 of them
// span 1µs to 1s at quarter-decade resolution — interactive-latency
// SLOs live in the 1ms–1s decades, and the log scale keeps both a 50µs
// cache hit and an 800ms cold scan resolvable. Observations under 1µs
// clamp to 1µs; the last bucket absorbs everything at or above its
// lower bound, so it has no upper bound.
const (
	latLogMax = 6.0 // 10^6 µs = 1s

	// LatencyBuckets is the number of buckets in every LatencyHistogram.
	LatencyBuckets = 24
)

// LatencyHistogram records wall times in the format above. It is the
// one recorder behind every latency series the serving stack exports
// (requests per endpoint, progressive rounds, per-shard scans,
// per-replica round trips), so /statusz and /metrics can never
// disagree with a layer about a bucket's bounds. The zero value is
// ready to use; Observe neither locks nor allocates, and all methods
// are safe for concurrent use.
type LatencyHistogram struct {
	counts [LatencyBuckets]atomic.Int64
	sumNS  atomic.Int64
}

// Observe records one wall time.
func (h *LatencyHistogram) Observe(d time.Duration) {
	if d < time.Microsecond {
		d = time.Microsecond
	}
	us := float64(d) / float64(time.Microsecond)
	b := int(LatencyBuckets * math.Log10(us) / latLogMax)
	if b >= LatencyBuckets {
		b = LatencyBuckets - 1
	}
	h.counts[b].Add(1)
	h.sumNS.Add(int64(d))
}

// LatencySnapshot is a point-in-time copy of a LatencyHistogram:
// per-bucket counts, their total, and the summed wall time (each
// observation clamped to at least 1µs, as bucketed).
type LatencySnapshot struct {
	Counts [LatencyBuckets]int64
	Count  int64
	Sum    time.Duration
}

// Snapshot copies the histogram out. Count is the total of Counts by
// construction; under concurrent Observes, Sum may run one observation
// ahead of or behind them.
func (h *LatencyHistogram) Snapshot() LatencySnapshot {
	var s LatencySnapshot
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
		s.Count += s.Counts[i]
	}
	s.Sum = time.Duration(h.sumNS.Load())
	return s
}

// LatencyBucketBoundsUS returns bucket i's bounds in microseconds: it
// holds observations with geUS <= latency < ltUS. The last bucket is
// the clamp bucket and reports ltUS = +Inf.
func LatencyBucketBoundsUS(i int) (geUS, ltUS float64) {
	const width = latLogMax / LatencyBuckets
	geUS, ltUS = math.Pow(10, float64(i)*width), math.Inf(1)
	if i < LatencyBuckets-1 {
		ltUS = math.Pow(10, float64(i+1)*width)
	}
	return geUS, ltUS
}
