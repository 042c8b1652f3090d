package main

import (
	"math"
	"sort"
	"time"
)

// minTail is the number of samples that must lie beyond a percentile
// before it is reported: a p99 needs at least 1000 samples.
const minTail = 10

// percentile returns the nearest-rank p-th percentile of xs and whether
// at least minTail samples lie beyond it. xs need not be sorted; it is
// not modified.
func percentile(xs []float64, p float64) (float64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := sortedCopy(xs)
	k := int(math.Ceil(p / 100 * float64(len(s))))
	if k < 1 {
		k = 1
	}
	return s[k-1], len(s)-k >= minTail
}

// tail returns the want-th percentile when the rule allows it, and
// otherwise the highest whole percentile below want that has minTail
// samples beyond it. The second result is the percentile reported; it
// is 0 (with the maximum as value) when fewer than 2·minTail samples
// exist.
func tail(xs []float64, want int) (float64, int) {
	for p := want; p >= 50; p-- {
		if v, ok := percentile(xs, float64(p)); ok {
			return v, p
		}
	}
	if len(xs) == 0 {
		return 0, 0
	}
	s := sortedCopy(xs)
	return s[len(s)-1], 0
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func secs(d time.Duration) float64 { return d.Seconds() }

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
