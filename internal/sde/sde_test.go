package sde

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestOUValidate(t *testing.T) {
	if err := (OU{Rate: 1, Mean: 0, Sigma: 0.1}).Validate(); err != nil {
		t.Errorf("valid OU rejected: %v", err)
	}
	if err := (OU{Rate: 0, Mean: 0, Sigma: 0.1}).Validate(); err == nil {
		t.Error("zero rate should be rejected")
	}
	if err := (OU{Rate: 1, Mean: 0, Sigma: -1}).Validate(); err == nil {
		t.Error("negative sigma should be rejected")
	}
}

func TestOUDriftSign(t *testing.T) {
	p := OU{Rate: 2, Mean: 5, Sigma: 0.1}
	if d := p.Drift(0, 3); d <= 0 {
		t.Errorf("drift below mean should be positive, got %g", d)
	}
	if d := p.Drift(0, 7); d >= 0 {
		t.Errorf("drift above mean should be negative, got %g", d)
	}
	if d := p.Drift(0, 5); d != 0 {
		t.Errorf("drift at mean should be zero, got %g", d)
	}
}

func TestOUExactMoments(t *testing.T) {
	p := OU{Rate: 2, Mean: 5, Sigma: 0.4}
	// At t=0: mean = h0, var = 0.
	if m := p.ExactMean(3, 0); m != 3 {
		t.Errorf("ExactMean(t=0) = %g, want 3", m)
	}
	if v := p.ExactVar(0); v != 0 {
		t.Errorf("ExactVar(0) = %g, want 0", v)
	}
	// As t→∞: mean → υh, var → stationary.
	if m := p.ExactMean(3, 1e6); math.Abs(m-5) > 1e-9 {
		t.Errorf("ExactMean(∞) = %g, want 5", m)
	}
	if v := p.ExactVar(1e6); math.Abs(v-p.StationaryVar()) > 1e-9 {
		t.Errorf("ExactVar(∞) = %g, want %g", v, p.StationaryVar())
	}
	if want := 0.4 * 0.4 / 2; math.Abs(p.StationaryVar()-want) > 1e-15 {
		t.Errorf("StationaryVar = %g, want %g", p.StationaryVar(), want)
	}
}

// Monte-Carlo check: Euler–Maruyama paths of the OU process reproduce the
// closed-form mean and variance within sampling error.
func TestOUEulerMatchesExactMoments(t *testing.T) {
	p := OU{Rate: 4, Mean: 2, Sigma: 0.5}
	const (
		paths = 4000
		steps = 200
		tEnd  = 1.0
	)
	in := Integrator{Proc: p, Dt: tEnd / steps}
	rng := NewRNG(42)
	var sum, sumSq float64
	for k := 0; k < paths; k++ {
		x := in.SamplePath(0, steps, rng).Last()
		sum += x
		sumSq += x * x
	}
	mean := sum / paths
	variance := sumSq/paths - mean*mean
	wantMean := p.ExactMean(0, tEnd)
	wantVar := p.ExactVar(tEnd)
	if math.Abs(mean-wantMean) > 0.02 {
		t.Errorf("MC mean %g vs exact %g", mean, wantMean)
	}
	if math.Abs(variance-wantVar)/wantVar > 0.15 {
		t.Errorf("MC var %g vs exact %g", variance, wantVar)
	}
}

func TestOUSampleExactMoments(t *testing.T) {
	p := OU{Rate: 3, Mean: 1, Sigma: 0.3}
	rng := NewRNG(7)
	const n = 20000
	var sum, sumSq float64
	for k := 0; k < n; k++ {
		x := p.SampleExact(0, 0.5, rng)
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-p.ExactMean(0, 0.5)) > 0.01 {
		t.Errorf("exact-sampler mean %g vs %g", mean, p.ExactMean(0, 0.5))
	}
	if math.Abs(variance-p.ExactVar(0.5))/p.ExactVar(0.5) > 0.1 {
		t.Errorf("exact-sampler var %g vs %g", variance, p.ExactVar(0.5))
	}
}

func TestCacheDriftValidate(t *testing.T) {
	good := CacheDrift{Qk: 100, W1: 1, W2: 0.05, W3: 10, Xi: 0.1, SigmaQ: 0.1}
	if err := good.Validate(); err != nil {
		t.Errorf("valid drift rejected: %v", err)
	}
	bad := good
	bad.Qk = 0
	if err := bad.Validate(); err == nil {
		t.Error("Qk=0 should be rejected")
	}
	bad = good
	bad.Xi = 1
	if err := bad.Validate(); err == nil {
		t.Error("ξ=1 should be rejected")
	}
	bad = good
	bad.W1 = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative w1 should be rejected")
	}
	bad = good
	bad.SigmaQ = -0.1
	if err := bad.Validate(); err == nil {
		t.Error("negative ϱq should be rejected")
	}
}

func TestCacheDriftStructure(t *testing.T) {
	c := CacheDrift{Qk: 100, W1: 1, W2: 0.05, W3: 10, Xi: 0.1, SigmaQ: 0}
	// More caching ⇒ remaining space shrinks faster.
	if c.Rate(1, 0.5, 2) >= c.Rate(0, 0.5, 2) {
		t.Error("drift should decrease in x")
	}
	// More popularity ⇒ less discarding ⇒ drift decreases in Π per Eq. (4).
	if c.Rate(0.5, 1, 2) >= c.Rate(0.5, 0, 2) {
		t.Error("drift should decrease in popularity")
	}
	// More urgency (larger L) ⇒ ξ^L smaller ⇒ drift decreases in L.
	if c.Rate(0.5, 0.5, 5) >= c.Rate(0.5, 0.5, 0) {
		t.Error("drift should decrease in timeliness level")
	}
}

// Property: ReflectInto always lands in [lo, hi] and is identity inside.
func TestReflectIntoProperty(t *testing.T) {
	f := func(x float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
		const lo, hi = -2.0, 3.0
		y := ReflectInto(x, lo, hi)
		if y < lo-1e-12 || y > hi+1e-12 {
			return false
		}
		if x >= lo && x <= hi && math.Abs(y-x) > 1e-12 {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestReflectIntoKnown(t *testing.T) {
	// Reflection just past a boundary mirrors back.
	if got := ReflectInto(3.5, 0, 3); math.Abs(got-2.5) > 1e-12 {
		t.Errorf("ReflectInto(3.5) = %g, want 2.5", got)
	}
	if got := ReflectInto(-0.5, 0, 3); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("ReflectInto(-0.5) = %g, want 0.5", got)
	}
	if got := ReflectInto(7, 0, 3); math.Abs(got-1) > 1e-12 {
		t.Errorf("ReflectInto(7) = %g, want 1 (two folds)", got)
	}
	if got := ReflectInto(5, 2, 2); got != 2 {
		t.Errorf("degenerate interval should pin to lo, got %g", got)
	}
}

func TestIntegratorReflectionKeepsBounds(t *testing.T) {
	p := OU{Rate: 1, Mean: 0.5, Sigma: 3} // violent diffusion
	in := Integrator{Proc: p, Dt: 0.01, Lo: 0, Hi: 1, Reflect: true}
	rng := NewRNG(9)
	path := in.SamplePath(0.5, 2000, rng)
	for i, v := range path.Values {
		if v < 0 || v > 1 {
			t.Fatalf("step %d escaped bounds: %g", i, v)
		}
	}
}

func TestPathShape(t *testing.T) {
	p := OU{Rate: 1, Mean: 0, Sigma: 0.1}
	in := Integrator{Proc: p, Dt: 0.1}
	path := in.SamplePath(1, 10, NewRNG(1))
	if len(path.Times) != 11 || len(path.Values) != 11 {
		t.Fatalf("path has %d/%d points, want 11", len(path.Times), len(path.Values))
	}
	if path.Times[0] != 0 || math.Abs(path.Times[10]-1) > 1e-12 {
		t.Errorf("times span [%g, %g], want [0, 1]", path.Times[0], path.Times[10])
	}
	if path.Values[0] != 1 {
		t.Errorf("initial value %g, want 1", path.Values[0])
	}
	if path.Last() != path.Values[10] {
		t.Error("Last() disagrees with final value")
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(123), NewRNG(123)
	for i := 0; i < 10; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed must give identical streams")
		}
	}
	c := NewRNG(124)
	same := true
	a = NewRNG(123)
	for i := 0; i < 10; i++ {
		if a.Float64() != c.Float64() {
			same = false
		}
	}
	if same {
		t.Error("different seeds gave identical streams")
	}
}

func TestDeriveSeedIndependence(t *testing.T) {
	seen := map[int64]bool{}
	for i := 0; i < 1000; i++ {
		s := DeriveSeed(42, i)
		if seen[s] {
			t.Fatalf("duplicate derived seed at index %d", i)
		}
		seen[s] = true
	}
	if DeriveSeed(42, 0) != DeriveSeed(42, 0) {
		t.Error("DeriveSeed must be deterministic")
	}
	if DeriveSeed(42, 1) == DeriveSeed(43, 1) {
		t.Error("different parents should give different children")
	}
}

func TestSplitMixAdvances(t *testing.T) {
	var s uint64 = 1
	a := SplitMix(&s)
	b := SplitMix(&s)
	if a == b {
		t.Error("SplitMix should produce different consecutive values")
	}
}

// referenceReflectInto is ReflectInto folding every input through math.Mod,
// as it did before in-range inputs skipped the fold.
func referenceReflectInto(x, lo, hi float64) float64 {
	if hi <= lo {
		return lo
	}
	width := hi - lo
	y := math.Mod(x-lo, 2*width)
	if y < 0 {
		y += 2 * width
	}
	if y > width {
		y = 2*width - y
	}
	return lo + y
}

// TestReflectIntoMatchesModFold pins ReflectInto to the Mod-only fold bit for
// bit: random inputs within one and a half widths of the interval, the
// bounds and their neighbours, signed zeros, infinities, NaN, a
// subnormal-width interval and one whose width overflows.
func TestReflectIntoMatchesModFold(t *testing.T) {
	negZero := math.Copysign(0, -1)
	inf := math.Inf(1)
	intervals := [][2]float64{
		{0, 100}, {0.5, 9.5}, {-3, 2.5}, {negZero, 1}, {1, math.Nextafter(1, 2)},
		{0, 3 * math.SmallestNonzeroFloat64}, {-math.MaxFloat64, math.MaxFloat64},
		{2, 2}, {5, -5},
	}
	rng := rand.New(rand.NewSource(35))
	for _, iv := range intervals {
		lo, hi := iv[0], iv[1]
		w := hi - lo
		xs := []float64{0, negZero, inf, -inf, math.NaN(), lo, hi, 2*hi - lo, 2*lo - hi}
		for _, b := range []float64{lo, hi} {
			xs = append(xs, math.Nextafter(b, inf), math.Nextafter(b, -inf))
		}
		if !math.IsInf(w, 0) {
			for i := 0; i < 50000; i++ {
				xs = append(xs, lo-1.5*w+4*w*rng.Float64())
			}
		}
		for _, x := range xs {
			got, want := ReflectInto(x, lo, hi), referenceReflectInto(x, lo, hi)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("ReflectInto(%v, %v, %v) = %v (%#x), want %v (%#x)",
					x, lo, hi, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
}
