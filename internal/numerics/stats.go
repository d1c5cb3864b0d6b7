package numerics

import (
	"fmt"
	"math"
	"sort"
)

// Summary holds descriptive statistics of a sample.
type Summary struct {
	N              int
	Mean, Std      float64
	Min, Max       float64
	Sum            float64
	Median         float64
	P05, P95       float64 // 5th and 95th percentiles
	Skew, Kurtosis float64 // excess kurtosis
}

// Summarize computes descriptive statistics. It returns a zero Summary for an
// empty sample.
func Summarize(xs []float64) Summary {
	n := len(xs)
	if n == 0 {
		return Summary{}
	}
	s := Summary{N: n, Min: math.Inf(1), Max: math.Inf(-1)}
	for _, x := range xs {
		s.Sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = s.Sum / float64(n)
	var m2, m3, m4 float64
	for _, x := range xs {
		d := x - s.Mean
		m2 += d * d
		m3 += d * d * d
		m4 += d * d * d * d
	}
	m2 /= float64(n)
	m3 /= float64(n)
	m4 /= float64(n)
	s.Std = math.Sqrt(m2)
	if m2 > 0 {
		s.Skew = m3 / math.Pow(m2, 1.5)
		s.Kurtosis = m4/(m2*m2) - 3
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.Median = Quantile(sorted, 0.5)
	s.P05 = Quantile(sorted, 0.05)
	s.P95 = Quantile(sorted, 0.95)
	return s
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of an already-sorted sample
// using linear interpolation between order statistics.
func Quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if n == 1 {
		return sorted[0]
	}
	q = Clamp(q, 0, 1)
	pos := q * float64(n-1)
	i := int(math.Floor(pos))
	if i >= n-1 {
		return sorted[n-1]
	}
	f := pos - float64(i)
	return Lerp(sorted[i], sorted[i+1], f)
}

// Mean returns the arithmetic mean, or NaN for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Histogram is a uniform-bin histogram over [Min, Max].
type Histogram struct {
	Min, Max float64
	Counts   []int
	total    int
	below    int
	above    int
}

// NewHistogram builds a histogram with bins uniform bins.
func NewHistogram(min, max float64, bins int) (*Histogram, error) {
	if bins < 1 {
		return nil, fmt.Errorf("numerics: NewHistogram: need at least 1 bin, got %d", bins)
	}
	if !(max > min) {
		return nil, fmt.Errorf("numerics: NewHistogram: empty range [%g, %g]", min, max)
	}
	return &Histogram{Min: min, Max: max, Counts: make([]int, bins)}, nil
}

// Add records one observation. Values outside the range are tallied
// separately and excluded from Density.
func (h *Histogram) Add(x float64) {
	h.total++
	if x < h.Min {
		h.below++
		return
	}
	if x > h.Max {
		h.above++
		return
	}
	bins := len(h.Counts)
	i := int((x - h.Min) / (h.Max - h.Min) * float64(bins))
	if i == bins { // x == Max lands in the last bin
		i = bins - 1
	}
	h.Counts[i]++
}

// Total returns the number of observations recorded (including out-of-range).
func (h *Histogram) Total() int { return h.total }

// OutOfRange returns the counts below Min and above Max.
func (h *Histogram) OutOfRange() (below, above int) { return h.below, h.above }

// BinWidth returns the width of each bin.
func (h *Histogram) BinWidth() float64 { return (h.Max - h.Min) / float64(len(h.Counts)) }

// BinCenter returns the midpoint of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	return h.Min + (float64(i)+0.5)*h.BinWidth()
}

// Density returns the normalised probability density per bin (integrating to
// ≤ 1; out-of-range mass is excluded). The result is empty if nothing in
// range was recorded.
func (h *Histogram) Density() []float64 {
	inRange := h.total - h.below - h.above
	out := make([]float64, len(h.Counts))
	if inRange == 0 {
		return out
	}
	w := h.BinWidth()
	for i, c := range h.Counts {
		out[i] = float64(c) / (float64(h.total) * w)
	}
	return out
}

// L1Distance returns the discrete L1 distance ∫|p−q| between two nodal
// densities sampled on the same uniform axis with spacing dx.
func L1Distance(p, q []float64, dx float64) (float64, error) {
	if len(p) != len(q) {
		return 0, fmt.Errorf("numerics: L1Distance: length mismatch %d vs %d", len(p), len(q))
	}
	var s float64
	for i := range p {
		s += math.Abs(p[i] - q[i])
	}
	return s * dx, nil
}
