// Package sde implements the stochastic processes driving the MFG-CP state
// dynamics: the mean-reverting Ornstein–Uhlenbeck channel-fading process
// (Eq. 1 of the paper), the remaining-cache-space diffusion (Eq. 4), and a
// generic Euler–Maruyama integrator with reflecting boundaries used by the
// Monte-Carlo market simulator to cross-validate the FPK density.
package sde

import (
	"fmt"
	"math"
	"math/rand"
)

// Process is a one-dimensional time-inhomogeneous Itô diffusion
// dX = Drift(t, x) dt + Diffusion(t, x) dW.
type Process interface {
	Drift(t, x float64) float64
	Diffusion(t, x float64) float64
}

// OU is the mean-reverting Ornstein–Uhlenbeck channel process of Eq. (1):
//
//	dh = ½ ςh (υh − h) dt + ϱh dW
//
// Rate is ςh (the paper's changing rate; the effective reversion speed is
// Rate/2), Mean is the long-term mean υh, and Sigma is the Brownian scale ϱh.
type OU struct {
	Rate  float64 // ςh > 0
	Mean  float64 // υh
	Sigma float64 // ϱh ≥ 0
}

// Validate reports whether the parameters define a proper OU process.
func (p OU) Validate() error {
	if !(p.Rate > 0) {
		return fmt.Errorf("sde: OU rate must be positive, got %g", p.Rate)
	}
	if p.Sigma < 0 {
		return fmt.Errorf("sde: OU sigma must be non-negative, got %g", p.Sigma)
	}
	return nil
}

// Drift implements Process.
func (p OU) Drift(_, x float64) float64 { return 0.5 * p.Rate * (p.Mean - x) }

// Diffusion implements Process.
func (p OU) Diffusion(_, _ float64) float64 { return p.Sigma }

// theta is the effective reversion speed of the process (Rate/2).
func (p OU) theta() float64 { return 0.5 * p.Rate }

// ExactMean returns E[h(t) | h(0)=h0] = υh + (h0−υh)·e^(−θt).
func (p OU) ExactMean(h0, t float64) float64 {
	return p.Mean + (h0-p.Mean)*math.Exp(-p.theta()*t)
}

// ExactVar returns Var[h(t) | h(0)=h0] = ϱh²(1−e^(−2θt))/(2θ).
func (p OU) ExactVar(t float64) float64 {
	th := p.theta()
	return p.Sigma * p.Sigma * (1 - math.Exp(-2*th*t)) / (2 * th)
}

// StationaryVar returns the t→∞ variance ϱh²/ςh.
func (p OU) StationaryVar() float64 { return p.Sigma * p.Sigma / p.Rate }

// SampleExact draws h(t) from the exact Gaussian transition law given h(0)=h0.
func (p OU) SampleExact(h0, t float64, rng *rand.Rand) float64 {
	return p.ExactMean(h0, t) + math.Sqrt(p.ExactVar(t))*rng.NormFloat64()
}

// CacheDrift captures the remaining-space drift of Eq. (4):
//
//	dq = Qk [ −w1·x − w2·Π + w3·ξ^L ] dt + ϱq dW
//
// where x is the caching rate, Π the content popularity and L the content
// timeliness. The three coefficients w1, w2, w3 weight placement, discard-on-
// unpopularity, and keep-on-urgency respectively.
type CacheDrift struct {
	Qk         float64 // content data size
	W1, W2, W3 float64
	Xi         float64 // ξ ∈ (0,1), steepness of the timeliness response
	SigmaQ     float64 // ϱq
}

// Validate checks the structural constraints of Eq. (4).
func (c CacheDrift) Validate() error {
	if !(c.Qk > 0) {
		return fmt.Errorf("sde: cache drift requires Qk > 0, got %g", c.Qk)
	}
	if !(c.Xi > 0 && c.Xi < 1) {
		return fmt.Errorf("sde: cache drift requires ξ in (0,1), got %g", c.Xi)
	}
	if c.W1 < 0 || c.W2 < 0 || c.W3 < 0 {
		return fmt.Errorf("sde: cache drift weights must be non-negative, got w1=%g w2=%g w3=%g", c.W1, c.W2, c.W3)
	}
	if c.SigmaQ < 0 {
		return fmt.Errorf("sde: cache drift requires ϱq ≥ 0, got %g", c.SigmaQ)
	}
	return nil
}

// Rate evaluates the deterministic drift for caching rate x, popularity pi
// and timeliness L.
func (c CacheDrift) Rate(x, pi, L float64) float64 {
	return c.Law(pi, c.XiL(L)).At(x)
}

// XiL is the timeliness response ξ^L of Eq. (4).
func (c CacheDrift) XiL(L float64) float64 { return math.Pow(c.Xi, L) }

// Law returns the drift as a function of the caching rate alone, at
// popularity pi and timeliness response xiL. A solve holds both fixed, so it
// evaluates w2·Π and w3·ξ^L once instead of at every node.
func (c CacheDrift) Law(pi, xiL float64) DriftLaw {
	return DriftLaw{qk: c.Qk, w1: c.W1, w2Pi: c.W2 * pi, w3XiL: c.W3 * xiL}
}

// DriftLaw is Eq. (4)'s drift with its x-free terms evaluated.
type DriftLaw struct {
	qk, w1, w2Pi, w3XiL float64
}

// At evaluates the drift Qk[−w1·x − w2·Π + w3·ξ^L] at caching rate x.
func (d DriftLaw) At(x float64) float64 {
	return d.qk * (-d.w1*x - d.w2Pi + d.w3XiL)
}

// Path is a sampled trajectory: Times[i] ↦ Values[i].
type Path struct {
	Times  []float64
	Values []float64
}

// Last returns the final value of the path.
func (p Path) Last() float64 { return p.Values[len(p.Values)-1] }

// Integrator advances a Process with the Euler–Maruyama scheme, optionally
// reflecting the state at [Lo, Hi] to mimic the bounded channel-fading and
// cache-space ranges used throughout the paper's evaluation.
type Integrator struct {
	Proc    Process
	Dt      float64
	Lo, Hi  float64 // reflecting barriers; ignored unless Reflect is true
	Reflect bool
}

// Step advances the state by one Dt using the supplied RNG.
func (in Integrator) Step(t, x float64, rng *rand.Rand) float64 {
	drift := in.Proc.Drift(t, x)
	diff := in.Proc.Diffusion(t, x)
	x2 := x + drift*in.Dt + diff*math.Sqrt(in.Dt)*rng.NormFloat64()
	if in.Reflect {
		x2 = ReflectInto(x2, in.Lo, in.Hi)
	}
	return x2
}

// SamplePath integrates a full trajectory of n steps starting from x0 at t=0.
func (in Integrator) SamplePath(x0 float64, n int, rng *rand.Rand) Path {
	times := make([]float64, n+1)
	vals := make([]float64, n+1)
	vals[0] = x0
	x := x0
	for k := 1; k <= n; k++ {
		t := float64(k-1) * in.Dt
		x = in.Step(t, x, rng)
		times[k] = float64(k) * in.Dt
		vals[k] = x
	}
	return Path{Times: times, Values: vals}
}

// ReflectInto folds x into [lo, hi] by reflection at the boundaries,
// matching the zero-flux boundary condition imposed on the FPK equation.
func ReflectInto(x, lo, hi float64) float64 {
	if hi <= lo {
		return lo
	}
	width := hi - lo
	y := x - lo
	// A point already in range needs no fold: math.Mod returns a dividend
	// smaller than its divisor exactly, so this is the fold's own result. A
	// width that overflowed to +Inf takes the fold, which maps x = +Inf to
	// NaN.
	if 0 <= y && y <= width && width <= math.MaxFloat64 {
		return lo + y
	}
	// Map into a 2*width sawtooth and fold.
	y = math.Mod(y, 2*width)
	if y < 0 {
		y += 2 * width
	}
	if y > width {
		y = 2*width - y
	}
	return lo + y
}
