package numerics

import (
	"fmt"
	"math"
)

// SmoothStep is the logistic approximation of the Heaviside step used by the
// paper for the service-case probabilities: f(x) = 1/(1+e^(−2lx)) with slope
// parameter l > 0 (Section III-A). f(0)=1/2, f(+∞)=1, f(−∞)=0.
func SmoothStep(l, x float64) float64 {
	// Guard the exponent so extreme arguments saturate instead of overflowing.
	a := -2 * l * x
	if a > 700 {
		return 0
	}
	if a < -700 {
		return 1
	}
	return 1 / (1 + math.Exp(a))
}

// NormalPDF is the density of N(mean, sd²) at x.
func NormalPDF(mean, sd, x float64) float64 {
	if sd <= 0 {
		return 0
	}
	z := (x - mean) / sd
	return math.Exp(-0.5*z*z) / (sd * math.Sqrt(2*math.Pi))
}

// ZipfWeights returns the normalised Zipf popularity vector with skew s over
// ranks 1..k: Π_r = (1/r^s) / Σ_{r'} (1/r'^s). This is the initial content
// popularity of Definition 1.
func ZipfWeights(k int, s float64) ([]float64, error) {
	if k < 1 {
		return nil, fmt.Errorf("numerics: ZipfWeights: need k >= 1, got %d", k)
	}
	if s <= 0 {
		return nil, fmt.Errorf("numerics: ZipfWeights: skew must be positive, got %g", s)
	}
	w := make([]float64, k)
	var z float64
	for r := 1; r <= k; r++ {
		w[r-1] = math.Pow(float64(r), -s)
		z += w[r-1]
	}
	for i := range w {
		w[i] /= z
	}
	return w, nil
}

// Clamp restricts x to [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// Clamp01 implements the paper's [x]^+ operator from Theorem 1: the value is
// clamped to the admissible caching-rate interval [0, 1]. It is Clamp(x, 0, 1)
// written out, which keeps its per-node callers within the inlining budget.
func Clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// Lerp linearly interpolates between a and b with weight t in [0,1].
func Lerp(a, b, t float64) float64 { return a + (b-a)*t }
