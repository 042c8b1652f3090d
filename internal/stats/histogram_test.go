package stats

import (
	"testing"
)

// TestHistBucketMonotone asserts the bucket mapping is monotone and
// every bucket bound round-trips into its own bucket.
func TestHistBucketMonotone(t *testing.T) {
	last := -1
	for v := uint64(0); v < 1<<18; v++ {
		b := histBucket(v)
		if b < last {
			t.Fatalf("bucket(%d) = %d < previous %d: mapping not monotone", v, b, last)
		}
		last = b
	}
	for i := 0; i < NumHistBuckets; i++ {
		bound := HistBucketBound(i)
		if got := histBucket(bound); got != i {
			t.Errorf("bucket(bound(%d)=%d) = %d, want %d", i, bound, got, i)
		}
		if i > 0 && bound <= HistBucketBound(i-1) {
			t.Errorf("bound(%d)=%d not above bound(%d)=%d", i, bound, i-1, HistBucketBound(i-1))
		}
	}
}

// TestHistBucketBoundsExact pins the bucket edges: values one past a
// bound land in the next bucket.
func TestHistBucketBoundsExact(t *testing.T) {
	for i := 0; i < NumHistBuckets-1; i++ {
		bound := HistBucketBound(i)
		if got := histBucket(bound + 1); got != i+1 {
			t.Errorf("bucket(%d+1) = %d, want %d", bound, got, i+1)
		}
	}
}

// TestPercentile checks quantiles on a known distribution: bucket
// bounds quote a value >= the true percentile and within the bucket's
// relative error.
func TestPercentile(t *testing.T) {
	var h Histogram
	for v := uint64(1); v <= 1000; v++ {
		h.Observe(v)
	}
	cases := []struct {
		p    int
		want uint64 // exact percentile of 1..1000
	}{{50, 500}, {95, 950}, {99, 990}, {100, 1000}}
	for _, c := range cases {
		got := h.Percentile(c.p)
		if got < c.want {
			t.Errorf("P%d = %d, below the true percentile %d", c.p, got, c.want)
		}
		// Log-linear with 4 sub-buckets: bound is < 25% above the value.
		if got > c.want+c.want/4+1 {
			t.Errorf("P%d = %d, more than 25%% above the true percentile %d", c.p, got, c.want)
		}
	}
	if h.Mean() != 500 {
		t.Errorf("Mean = %d, want 500", h.Mean())
	}
}

// TestPercentileSmall covers empty and single-sample histograms.
func TestPercentileSmall(t *testing.T) {
	var h Histogram
	if got := h.Percentile(50); got != 0 {
		t.Errorf("empty P50 = %d, want 0", got)
	}
	h.Observe(7)
	for _, p := range []int{1, 50, 99, 100} {
		if got := h.Percentile(p); got != 7 {
			t.Errorf("single-sample P%d = %d, want 7", p, got)
		}
	}
}

// TestObserveClamp asserts out-of-range values land in the last bucket
// instead of indexing out of bounds.
func TestObserveClamp(t *testing.T) {
	var h Histogram
	h.Observe(1 << 40)
	if h.Buckets[NumHistBuckets-1] != 1 {
		t.Error("huge value did not clamp into the last bucket")
	}
	if got := h.Percentile(50); got != HistBucketBound(NumHistBuckets-1) {
		t.Errorf("P50 = %d, want last bucket bound %d", got, HistBucketBound(NumHistBuckets-1))
	}
}

// TestObserveNoAllocs pins the overhead contract: observing and
// extracting quantiles never allocates.
func TestObserveNoAllocs(t *testing.T) {
	var h Histogram
	allocs := testing.AllocsPerRun(100, func() {
		h.Observe(42)
		h.Percentile(99)
	})
	if allocs != 0 {
		t.Errorf("Observe+Percentile allocated %.1f times per run, want 0", allocs)
	}
}
