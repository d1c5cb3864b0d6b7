package pde

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/grid"
)

// Comparison principle: if running utility U1 ≥ U2 pointwise (same dynamics),
// then V1 ≥ V2 everywhere. The monotone implicit scheme preserves this
// ordering discretely.
func TestHJBComparisonPrinciple(t *testing.T) {
	g := testGrid(t, 9, 17)
	mk := func(bonus float64) *HJBSolution {
		p := &HJBProblem{
			Grid:    g,
			Time:    testMesh(t, 1, 40),
			DiffH:   0.05,
			DiffQ:   0.05,
			DriftH:  func(_, h float64) float64 { return 0.5 - h },
			DriftQ:  pointwise(func(x float64) float64 { return -0.5 * x }),
			Control: pointwise(func(dV float64) float64 { return clamp01(-dV) }),
			Running: running(g, func(h, q, x float64) float64 {
				return math.Sin(4*h)*math.Cos(3*q) - x*x + bonus
			}),
		}
		sol, err := SolveHJB(p)
		if err != nil {
			t.Fatal(err)
		}
		return sol
	}
	hi := mk(0.5)
	lo := mk(0)
	for n := range hi.V {
		for k := range hi.V[n] {
			if hi.V[n][k] < lo.V[n][k]-1e-9 {
				t.Fatalf("comparison principle violated at step %d node %d: %g < %g",
					n, k, hi.V[n][k], lo.V[n][k])
			}
		}
	}
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// Additivity of constants: adding a constant c to the running utility shifts
// V by c·(T−t) exactly (the linear solver sees the constant pass through the
// Neumann operators unchanged).
func TestHJBConstantShift(t *testing.T) {
	g := testGrid(t, 7, 7)
	tmesh := testMesh(t, 2, 50)
	mk := func(c float64) *HJBSolution {
		p := &HJBProblem{
			Grid:    g,
			Time:    tmesh,
			DiffH:   0.1,
			DiffQ:   0.1,
			DriftH:  func(_, h float64) float64 { return 0.3 - h },
			DriftQ:  pointwise(func(x float64) float64 { return -x }),
			Control: pointwise(func(dV float64) float64 { return clamp01(-dV) }),
			Running: running(g, func(_, q, x float64) float64 { return q - x*x + c }),
		}
		sol, err := SolveHJB(p)
		if err != nil {
			t.Fatal(err)
		}
		return sol
	}
	base := mk(0)
	shift := mk(3)
	for n := range base.V {
		want := 3 * (tmesh.Horizon - tmesh.At(n))
		for k := range base.V[n] {
			if d := shift.V[n][k] - base.V[n][k]; math.Abs(d-want) > 1e-6 {
				t.Fatalf("constant shift at step %d node %d: got %g, want %g", n, k, d, want)
			}
		}
	}
}

// Property (testing/quick): the conservative FPK preserves mass and
// positivity under randomised smooth drift fields.
func TestFPKRandomDriftInvariants(t *testing.T) {
	g := testGrid(t, 9, 13)
	init := gaussianInit(t, g)
	f := func(a, b, c, d uint8) bool {
		// Randomised but bounded drift coefficients.
		ah := float64(a%10)/5 - 1
		bh := float64(b%10) / 10
		aq := float64(c%10)/5 - 1
		bq := float64(d%10) / 10
		p := &FPKProblem{
			Grid:   g,
			Time:   grid.TimeMesh{Horizon: 0.5, Steps: 25},
			DiffH:  0.02,
			DiffQ:  0.02,
			DriftH: func(_, h float64) float64 { return ah + bh*math.Sin(6*h) },
			DriftQ: drift(g, func(h, q float64) float64 { return aq + bq*math.Cos(5*q+h) }),
			Form:   Conservative,
		}
		sol, err := SolveFPK(p, init)
		if err != nil {
			return false
		}
		last := len(sol.Lambda) - 1
		if math.Abs(sol.Mass(last)-sol.Mass(0)) > 1e-9 {
			return false
		}
		for _, v := range sol.Lambda[last] {
			if v < 0 || math.IsNaN(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// The implicit scheme is unconditionally stable: huge diffusion with few time
// steps must not blow up (the explicit scheme rejects the same setup).
func TestImplicitUnconditionalStability(t *testing.T) {
	g := testGrid(t, 9, 41)
	p := &FPKProblem{
		Grid:   g,
		Time:   testMesh(t, 1, 5), // dt = 0.2, wildly above any CFL bound
		DiffH:  5,
		DiffQ:  5,
		DriftH: func(_, h float64) float64 { return 10 * (0.5 - h) },
		DriftQ: drift(g, func(_, q float64) float64 { return 10 * (0.5 - q) }),
		Form:   Conservative,
	}
	init := gaussianInit(t, g)
	sol, err := SolveFPK(p, init)
	if err != nil {
		t.Fatalf("implicit scheme should accept any dt: %v", err)
	}
	for n := range sol.Lambda {
		for k, v := range sol.Lambda[n] {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				t.Fatalf("instability at step %d node %d: %g", n, k, v)
			}
		}
	}
	pexp := *p
	pexp.Scheme = Explicit
	if _, err := SolveFPK(&pexp, init); err == nil {
		t.Error("explicit scheme should reject this CFL-violating setup")
	}
}

// Strategy fields returned by the HJB honour the Control callback's clamp for
// arbitrary (deterministic-random) utilities.
func TestHJBControlAlwaysClamped(t *testing.T) {
	g := testGrid(t, 7, 11)
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 10; trial++ {
		amp := rng.Float64() * 100
		p := &HJBProblem{
			Grid:    g,
			Time:    testMesh(t, 1, 20),
			DiffH:   rng.Float64(),
			DiffQ:   rng.Float64(),
			DriftH:  func(_, h float64) float64 { return 0.5 - h },
			DriftQ:  pointwise(func(x float64) float64 { return -x }),
			Control: pointwise(func(dV float64) float64 { return clamp01(-dV / 10) }),
			Running: running(g, func(h, q, x float64) float64 {
				return amp * math.Sin(h*q*7)
			}),
		}
		sol, err := SolveHJB(p)
		if err != nil {
			t.Fatal(err)
		}
		for n := range sol.X {
			for k, x := range sol.X[n] {
				if x < 0 || x > 1 {
					t.Fatalf("trial %d: control %g at step %d node %d", trial, x, n, k)
				}
			}
		}
	}
}
