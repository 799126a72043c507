package telemetry

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// histMin is the width of the first histogram bucket in seconds: one
// microsecond, below real transport exchanges and schedule builds but
// above clock noise.
const histMin = 1e-6

// histBuckets is the number of log-base-2 buckets. Bucket i spans
// (histMin·2^(i-1), histMin·2^i]; bucket 0 is (0, histMin] and the last
// bucket is unbounded. 40 doublings of 1 µs reach ~6.4 days, far past
// any latency or advance time the grid produces.
const histBuckets = 40

// Histogram is a lock-free log-bucketed histogram for latencies and
// advance times, in seconds. Observations land in power-of-two buckets
// with exact atomic count/sum/min/max, so quantiles are estimated within
// a factor-of-two bucket and the extremes are exact. All methods no-op
// on a nil receiver; construct with NewHistogram (min/max need non-zero
// initial bits).
type Histogram struct {
	count   atomic.Uint64
	sumBits atomic.Uint64 // float64 bits, CAS-accumulated
	minBits atomic.Uint64 // float64 bits, starts at +Inf
	maxBits atomic.Uint64 // float64 bits, starts at -Inf
	buckets [histBuckets]atomic.Uint64
}

// NewHistogram returns an empty histogram with the default bucket
// layout.
func NewHistogram() *Histogram {
	h := &Histogram{}
	h.minBits.Store(floatBits(math.Inf(1)))
	h.maxBits.Store(floatBits(math.Inf(-1)))
	return h
}

// bucketIndex maps a value in seconds to its bucket.
func bucketIndex(v float64) int {
	if v <= histMin {
		return 0
	}
	ratio := v / histMin
	if ratio >= float64(uint64(1)<<(histBuckets-1)) {
		return histBuckets - 1
	}
	// Smallest i with 2^i >= ratio: the bucket whose upper bound
	// histMin·2^i is the first to cover v.
	return bits.Len64(uint64(math.Ceil(ratio)) - 1)
}

// bucketUpper is the inclusive upper bound of bucket i in seconds; +Inf
// for the last bucket.
func bucketUpper(i int) float64 {
	if i >= histBuckets-1 {
		return math.Inf(1)
	}
	return histMin * float64(uint64(1)<<uint(i))
}

// Observe records one value (seconds). Negative values clamp to zero.
// Lock-free; safe from any goroutine.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	if v < 0 || math.IsNaN(v) {
		v = 0
	}
	h.buckets[bucketIndex(v)].Add(1)
	h.count.Add(1)
	casAdd(&h.sumBits, v)
	casMin(&h.minBits, v)
	casMax(&h.maxBits, v)
}

// Count returns the number of observations; 0 on nil.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Bucket is one non-empty histogram bucket: Count observations at or
// below UpperBound (bounds are per-bucket, not cumulative; the
// Prometheus writer accumulates).
type Bucket struct {
	UpperBound float64 `json:"le"`
	Count      uint64  `json:"count"`
}

// HistogramSnapshot is a point-in-time copy of a histogram, the unit of
// merging and quantile estimation. Min/Max/Sum are 0 when Count is 0.
type HistogramSnapshot struct {
	Count   uint64   `json:"count"`
	Sum     float64  `json:"sum"`
	Min     float64  `json:"min"`
	Max     float64  `json:"max"`
	Buckets []Bucket `json:"buckets,omitempty"` // non-empty buckets, ascending bounds
}

// Snapshot copies the histogram. The copy is consistent enough for
// exposition (buckets are read after count, so the bucket total can
// only exceed never trail concurrent observations by design noise);
// empty on nil.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	if h == nil {
		return s
	}
	s.Count = h.count.Load()
	if s.Count == 0 {
		return s
	}
	s.Sum = floatFrom(h.sumBits.Load())
	s.Min = floatFrom(h.minBits.Load())
	s.Max = floatFrom(h.maxBits.Load())
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n > 0 {
			s.Buckets = append(s.Buckets, Bucket{UpperBound: bucketUpper(i), Count: n})
		}
	}
	return s
}

// Mean returns Sum/Count; 0 when empty.
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// Quantile estimates the q-quantile (q in [0,1]). q<=0 returns the exact
// minimum and q>=1 the exact maximum; interior quantiles interpolate
// linearly inside the covering bucket, clamped to the observed [Min,
// Max] so single-bucket histograms do not report bounds they never saw.
// 0 when empty.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if q <= 0 {
		return s.Min
	}
	if q >= 1 {
		return s.Max
	}
	rank := q * float64(s.Count)
	var cum uint64
	for _, b := range s.Buckets {
		cum += b.Count
		if float64(cum) >= rank {
			lower := 0.0
			if b.UpperBound > histMin {
				lower = b.UpperBound / 2
			}
			upper := b.UpperBound
			if math.IsInf(upper, 1) {
				upper = s.Max
			}
			// Position of the rank within this bucket's count.
			prev := float64(cum - b.Count)
			frac := (rank - prev) / float64(b.Count)
			v := lower + frac*(upper-lower)
			return math.Min(math.Max(v, s.Min), s.Max)
		}
	}
	return s.Max
}

// Merge combines two snapshots taken from histograms with the default
// layout — how per-resource latency histograms roll up into the
// grid-wide one. Either side may be empty.
func (s HistogramSnapshot) Merge(o HistogramSnapshot) HistogramSnapshot {
	if s.Count == 0 {
		return o
	}
	if o.Count == 0 {
		return s
	}
	out := HistogramSnapshot{
		Count: s.Count + o.Count,
		Sum:   s.Sum + o.Sum,
		Min:   math.Min(s.Min, o.Min),
		Max:   math.Max(s.Max, o.Max),
	}
	// Merge the two ascending non-empty bucket lists.
	i, j := 0, 0
	for i < len(s.Buckets) || j < len(o.Buckets) {
		switch {
		case j >= len(o.Buckets) || (i < len(s.Buckets) && s.Buckets[i].UpperBound < o.Buckets[j].UpperBound):
			out.Buckets = append(out.Buckets, s.Buckets[i])
			i++
		case i >= len(s.Buckets) || o.Buckets[j].UpperBound < s.Buckets[i].UpperBound:
			out.Buckets = append(out.Buckets, o.Buckets[j])
			j++
		default: // equal bounds
			out.Buckets = append(out.Buckets, Bucket{
				UpperBound: s.Buckets[i].UpperBound,
				Count:      s.Buckets[i].Count + o.Buckets[j].Count,
			})
			i++
			j++
		}
	}
	return out
}

// floatBits/floatFrom convert float64 gauge and histogram state to the
// uint64 domain of the atomics.
func floatBits(v float64) uint64 { return math.Float64bits(v) }
func floatFrom(b uint64) float64 { return math.Float64frombits(b) }

// casAdd accumulates v into a float64-bits atomic.
func casAdd(a *atomic.Uint64, v float64) {
	for {
		old := a.Load()
		if a.CompareAndSwap(old, floatBits(floatFrom(old)+v)) {
			return
		}
	}
}

// casMin lowers a float64-bits atomic to v if v is smaller.
func casMin(a *atomic.Uint64, v float64) {
	for {
		old := a.Load()
		if floatFrom(old) <= v {
			return
		}
		if a.CompareAndSwap(old, floatBits(v)) {
			return
		}
	}
}

// casMax raises a float64-bits atomic to v if v is larger.
func casMax(a *atomic.Uint64, v float64) {
	for {
		old := a.Load()
		if floatFrom(old) >= v {
			return
		}
		if a.CompareAndSwap(old, floatBits(v)) {
			return
		}
	}
}
