package obs

import (
	"math/bits"
	"time"
)

// The histogram is log-linear in the HDR style: each power-of-two range of
// nanoseconds is split into SubBuckets linear sub-buckets, so relative
// quantile error is bounded by 1/SubBuckets (≈6%) at every magnitude. The
// bucket count is fixed at compile time so a Histogram is a flat value type
// — no allocation to create, record into, merge, or snapshot.
const (
	// subBits is log2 of the linear sub-bucket count per octave.
	subBits = 4
	// SubBuckets is the number of linear sub-buckets per power of two.
	SubBuckets = 1 << subBits
	// NumBuckets covers values below 2^45 ns (≈ 9.7 simulated hours);
	// larger values clamp into the final (overflow) bucket. The first
	// SubBuckets buckets are exact single-nanosecond buckets.
	NumBuckets = (45 - subBits + 1) * SubBuckets
)

// Histogram is a fixed-size log-linear latency histogram over nanosecond
// durations. The zero value is empty and ready to use. Record is
// allocation-free; histograms merge by field-wise addition.
type Histogram struct {
	Count   int64
	Sum     int64
	MinV    int64 // valid only when Count > 0
	MaxV    int64
	Buckets [NumBuckets]int64
}

// bucketOf maps a non-negative nanosecond value to its bucket index.
func bucketOf(v int64) int {
	u := uint64(v)
	if u < SubBuckets {
		return int(u)
	}
	exp := bits.Len64(u) - 1 - subBits
	idx := (exp+1)*SubBuckets + int((u>>uint(exp))&(SubBuckets-1))
	if idx >= NumBuckets {
		return NumBuckets - 1
	}
	return idx
}

// bucketUpper returns the largest value that maps into bucket i — the value
// reported for quantiles that land in it.
func bucketUpper(i int) int64 {
	if i < SubBuckets {
		return int64(i)
	}
	exp := uint(i/SubBuckets - 1)
	mant := int64(i % SubBuckets)
	return (SubBuckets+mant)<<exp + (1 << exp) - 1
}

// Record adds one duration observation. Negative durations clamp to zero.
func (h *Histogram) Record(d time.Duration) {
	v := int64(d)
	if v < 0 {
		v = 0
	}
	if h.Count == 0 || v < h.MinV {
		h.MinV = v
	}
	if v > h.MaxV {
		h.MaxV = v
	}
	h.Count++
	h.Sum += v
	h.Buckets[bucketOf(v)]++
}

// Merge adds o's observations into h.
func (h *Histogram) Merge(o *Histogram) {
	if o.Count == 0 {
		return
	}
	if h.Count == 0 || o.MinV < h.MinV {
		h.MinV = o.MinV
	}
	if o.MaxV > h.MaxV {
		h.MaxV = o.MaxV
	}
	h.Count += o.Count
	h.Sum += o.Sum
	for i := range h.Buckets {
		h.Buckets[i] += o.Buckets[i]
	}
}

// Quantile returns the value at quantile p in [0,1] as a duration. The
// result is the upper bound of the bucket holding the p-th observation,
// clamped into [Min, Max], so Quantile(0) == Min, Quantile(1) == Max, and
// max ≥ p999 holds structurally. An empty histogram returns 0.
func (h *Histogram) Quantile(p float64) time.Duration {
	var q [1]int64
	h.quantiles([]float64{p}, q[:])
	return time.Duration(q[0])
}

// quantiles sets q[k] to Quantile(ps[k]) for ascending ps, in one pass over
// the buckets.
func (h *Histogram) quantiles(ps []float64, q []int64) {
	var cum int64
	i := 0
	for k, p := range ps {
		switch {
		case h.Count == 0:
			continue
		case p <= 0:
			q[k] = h.MinV
			continue
		case p >= 1:
			q[k] = h.MaxV
			continue
		}
		// Rank of the target observation, 1-based: ceil(p * Count).
		target := int64(p * float64(h.Count))
		if float64(target) < p*float64(h.Count) {
			target++
		}
		target = max(1, min(target, h.Count))
		for cum < target && i < NumBuckets {
			cum += h.Buckets[i]
			i++
		}
		q[k] = h.MaxV
		if cum >= target {
			q[k] = max(h.MinV, min(bucketUpper(i-1), h.MaxV))
		}
	}
}

// Mean returns the arithmetic mean observation, or 0 when empty.
func (h *Histogram) Mean() time.Duration {
	if h.Count == 0 {
		return 0
	}
	return time.Duration(h.Sum / h.Count)
}

// Min returns the smallest observation, or 0 when empty.
func (h *Histogram) Min() time.Duration {
	if h.Count == 0 {
		return 0
	}
	return time.Duration(h.MinV)
}

// Max returns the largest observation, or 0 when empty.
func (h *Histogram) Max() time.Duration {
	if h.Count == 0 {
		return 0
	}
	return time.Duration(h.MaxV)
}

// Summary condenses the histogram into the export snapshot for one phase.
func (h *Histogram) Summary(name string) PhaseSnapshot {
	var q [4]int64
	h.quantiles([]float64{0.50, 0.90, 0.99, 0.999}, q[:])
	return PhaseSnapshot{
		Phase:  name,
		Count:  h.Count,
		MeanNS: int64(h.Mean()),
		MinNS:  int64(h.Min()),
		MaxNS:  int64(h.Max()),
		P50NS:  q[0],
		P90NS:  q[1],
		P99NS:  q[2],
		P999NS: q[3],
	}
}
