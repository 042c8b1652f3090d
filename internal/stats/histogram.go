package stats

import (
	"fmt"
	"math/bits"
)

// NumHistBuckets is the fixed bucket count of Histogram: 16 exact
// buckets for values 0–15 plus 4 log-linear sub-buckets per power of two
// up to 2^24, which covers every latency the pipeline can produce (the
// watchdog bounds a single wait at 100k cycles) with ≤ 25% relative
// error in the tail.
const NumHistBuckets = 96

// Histogram is a fixed-bucket integer histogram for simulator latencies.
// Observation and quantile extraction use pure integer arithmetic and a
// fixed-size array: no floats in the hot path, no allocation ever, and
// byte-identical results across runs. The zero value is ready to use,
// and the struct copies by value (core.Result snapshots ooo.Stats).
type Histogram struct {
	Count   uint64
	Sum     uint64
	Buckets [NumHistBuckets]uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v uint64) {
	h.Count++
	h.Sum += v
	h.Buckets[histBucket(v)]++
}

// HistBucketOf returns the bucket index a value lands in — the exported
// twin of histBucket for callers that keep per-bucket sidecars aligned
// with a Histogram (telemetry's exemplar store keys its slots this way).
func HistBucketOf(v uint64) int { return histBucket(v) }

// histBucket maps a value to its bucket index: exact below 16, then 4
// sub-buckets per octave, clamping at the last bucket.
func histBucket(v uint64) int {
	if v < 16 {
		return int(v)
	}
	exp := bits.Len64(v) - 1 // >= 4
	sub := int((v >> (uint(exp) - 2)) & 3)
	idx := 16 + (exp-4)*4 + sub
	if idx >= NumHistBuckets {
		return NumHistBuckets - 1
	}
	return idx
}

// HistBucketBound returns the largest value bucket i can hold (its
// inclusive upper bound), the value quantiles report for the bucket.
func HistBucketBound(i int) uint64 {
	if i < 16 {
		return uint64(i)
	}
	exp := uint(4 + (i-16)/4)
	sub := uint64((i-16)%4 + 1)
	return 1<<exp + sub<<(exp-2) - 1
}

// Percentile returns the upper bound of the bucket containing the p-th
// percentile sample (p in 1..100), computed over the bucket counts so a
// partially copied histogram still answers consistently. Returns 0 for
// an empty histogram.
func (h *Histogram) Percentile(p int) uint64 {
	var total uint64
	for _, c := range h.Buckets {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := (total*uint64(p) + 99) / 100
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for i, c := range h.Buckets {
		cum += c
		if cum >= rank {
			return HistBucketBound(i)
		}
	}
	return HistBucketBound(NumHistBuckets - 1)
}

// Mean returns the integer mean of the observed samples (0 when empty).
func (h *Histogram) Mean() uint64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / h.Count
}

// Merge adds o's samples into h, so per-workload histograms aggregate
// into suite-level percentiles. The bucket count is a compile-time
// constant, so the only way two histograms disagree on geometry is data
// produced by a binary built with a different NumHistBuckets — which a
// fixed-array JSON decode silently truncates or zero-fills into an
// internally inconsistent histogram. Merge therefore checks each side's
// bucket counts against its Count and refuses the mismatch instead of
// producing quietly wrong percentiles.
func (h *Histogram) Merge(o *Histogram) error {
	if err := h.checkGeometry("merge target"); err != nil {
		return err
	}
	if err := o.checkGeometry("merge source"); err != nil {
		return err
	}
	h.Count += o.Count
	h.Sum += o.Sum
	for i := range h.Buckets {
		h.Buckets[i] += o.Buckets[i]
	}
	return nil
}

// checkGeometry verifies the histogram's internal consistency: the
// bucket counts must sum to Count, which any same-geometry Observe
// sequence guarantees and any cross-geometry import breaks.
func (h *Histogram) checkGeometry(role string) error {
	var total uint64
	for _, c := range h.Buckets {
		total += c
	}
	if total != h.Count {
		return fmt.Errorf("stats: %s histogram bucket layout mismatch: %d bucketed samples vs count %d (produced with a different bucket geometry?)",
			role, total, h.Count)
	}
	return nil
}
