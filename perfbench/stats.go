package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile: a tail
// read from fewer samples is mostly noise, so the helper refuses it.
const minBeyond = 10

// percentile returns the p-th percentile (0 < p < 100) of xs by the
// nearest-rank rule, or an error when fewer than minBeyond samples lie above
// that rank.
func percentile(xs []float64, p float64) (float64, error) {
	if !(p > 0 && p < 100) {
		return 0, fmt.Errorf("percentile %g outside (0, 100)", p)
	}
	n := len(xs)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if n-rank < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", p, n, n-rank, minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// tailPercentile returns the latency the slowest max(minBeyond, n/20)
// samples exceed, and the percentile that is: p95 for large samples, and
// the highest percentile with minBeyond samples beyond it for small ones.
// The top 1% of a fleet run is a handful of peer fills that overlapped a
// collection or each other, which moves p99 by a quarter between runs of the
// same seed on a two-core host; the top 5% is the peer-fill bulk.
func tailPercentile(xs []float64) (p, v float64, err error) {
	n := len(xs)
	beyond := max(minBeyond, n/20)
	if n <= beyond {
		return 0, 0, fmt.Errorf("%d samples leave no percentile with %d beyond it", n, beyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return 100 * float64(n-beyond) / float64(n), s[n-beyond-1], nil
}

// median is the plain middle value of a per-layer sample (0 when empty). It
// applies no ten-beyond rule: per-layer medians attribute time, they are not
// reported tails.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio is num/den, 0 when den is 0 (a layer the workload never reached).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
