package obs

import "math/bits"

// histBuckets covers int64 values with power-of-two buckets: bucket 0
// holds value 0, bucket i (i >= 1) holds [2^(i-1), 2^i - 1]. 64 buckets
// plus the zero bucket cover every non-negative int64.
const histBuckets = 64

// Histogram is a fixed-shape power-of-two histogram of non-negative
// int64 samples. The zero value is ready to use.
type Histogram struct {
	counts [histBuckets]int64
	sum    int64
	count  int64
	max    int64
}

// bucketOf maps a sample to its bucket index. Negative samples clamp to
// the zero bucket; they cannot occur from the instrumented sources.
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}

// Observe records one sample.
func (h *Histogram) Observe(v int64) {
	h.counts[bucketOf(v)]++
	h.sum += v
	h.count++
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() int64 {
	return h.count
}

// Sum returns the total of all recorded samples.
func (h *Histogram) Sum() int64 {
	return h.sum
}

// Max returns the largest recorded sample (0 when empty).
func (h *Histogram) Max() int64 {
	return h.max
}

// Mean returns the average sample, or 0 when empty.
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// BucketDoc is one occupied histogram bucket. Le is the inclusive upper
// bound of the bucket's value range; the range starts just above the
// previous occupied-or-not bucket's Le (0, or 2^(i-1) for bucket i).
type BucketDoc struct {
	Le    int64 `json:"le"`
	Count int64 `json:"count"`
}

// HistogramDoc is the JSON rendering of a histogram: aggregate moments
// plus the occupied buckets in ascending order.
type HistogramDoc struct {
	Count   int64       `json:"count"`
	Sum     int64       `json:"sum"`
	Max     int64       `json:"max"`
	Mean    float64     `json:"mean"`
	Buckets []BucketDoc `json:"buckets,omitempty"`
}

// Doc renders the histogram, or nil when it has no samples.
func (h *Histogram) Doc() *HistogramDoc {
	if h.count == 0 {
		return nil
	}
	d := &HistogramDoc{Count: h.count, Sum: h.sum, Max: h.max, Mean: h.Mean()}
	for i, n := range h.counts {
		if n == 0 {
			continue
		}
		le := int64(0)
		if i > 0 {
			le = 1<<uint(i) - 1
		}
		d.Buckets = append(d.Buckets, BucketDoc{Le: le, Count: n})
	}
	return d
}
