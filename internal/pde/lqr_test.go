package pde

import (
	"math"
	"testing"

	"repro/internal/grid"
)

// Closed-form validation of the control-coupled HJB loop: the scalar
// linear-quadratic regulator
//
//	dq = −x dt,   U(x, q) = −q² − x²,   V(T, ·) = 0
//
// has the exact solution V(t, q) = −q²·tanh(T−t) with optimal feedback
// x*(t, q) = q·tanh(T−t) (= −∂qV/2). On q ∈ [0, 1] the optimal control lies
// inside [0, 1], so the clamp is inactive and the solver must reproduce the
// Riccati solution to discretisation accuracy.
func TestHJBMatchesLQRClosedForm(t *testing.T) {
	const T = 1.0
	g, err := grid.NewGrid2D(
		grid.Axis{Min: 0, Max: 1, N: 3},
		grid.Axis{Min: 0, Max: 1, N: 201},
	)
	if err != nil {
		t.Fatal(err)
	}
	tm, err := grid.NewTimeMesh(T, 800)
	if err != nil {
		t.Fatal(err)
	}
	p := &HJBProblem{
		Grid:   g,
		Time:   tm,
		DriftH: func(_, _ float64) float64 { return 0 },
		DriftQ: pointwise(func(x float64) float64 { return -x }),
		Control: pointwise(func(dV float64) float64 {
			x := -dV / 2
			if x < 0 {
				return 0
			}
			if x > 1 {
				return 1
			}
			return x
		}),
		Running: running(g, func(_, q, x float64) float64 { return -q*q - x*x }),
	}
	sol, err := SolveHJB(p)
	if err != nil {
		t.Fatal(err)
	}

	// Compare V and x* against the Riccati solution away from the q=1
	// boundary (the Neumann condition perturbs the outermost cells).
	for _, frac := range []float64{0, 0.25, 0.5} {
		n := int(frac * float64(tm.Steps))
		tanh := math.Tanh(T - tm.At(n))
		for j := 20; j < g.Q.N-20; j++ {
			q := g.Q.At(j)
			wantV := -q * q * tanh
			gotV := sol.V[n][g.Idx(1, j)]
			if math.Abs(gotV-wantV) > 0.01 {
				t.Fatalf("V(t=%.2f, q=%.3f) = %.5f, Riccati %.5f", tm.At(n), q, gotV, wantV)
			}
			wantX := q * tanh
			gotX := sol.X[n][g.Idx(1, j)]
			if math.Abs(gotX-wantX) > 0.02 {
				t.Fatalf("x*(t=%.2f, q=%.3f) = %.5f, Riccati %.5f", tm.At(n), q, gotX, wantX)
			}
		}
	}
}

// The same LQR with diffusion has the exact solution
// V(t,q) = −q²·tanh(T−t) − σ²·ln cosh(T−t): the noise adds a state-
// independent offset, leaving the feedback law unchanged.
func TestHJBMatchesStochasticLQRClosedForm(t *testing.T) {
	const (
		T     = 1.0
		sigma = 0.15
	)
	g, err := grid.NewGrid2D(
		grid.Axis{Min: 0, Max: 1, N: 3},
		grid.Axis{Min: -1, Max: 2, N: 301}, // widen so boundary effects stay away from [0,1]
	)
	if err != nil {
		t.Fatal(err)
	}
	tm, err := grid.NewTimeMesh(T, 800)
	if err != nil {
		t.Fatal(err)
	}
	p := &HJBProblem{
		Grid:   g,
		Time:   tm,
		DiffQ:  0.5 * sigma * sigma,
		DriftH: func(_, _ float64) float64 { return 0 },
		DriftQ: pointwise(func(x float64) float64 { return -x }),
		Control: pointwise(func(dV float64) float64 {
			x := -dV / 2
			if x < -0.5 { // admit the slightly negative controls of q<0 nodes
				return -0.5
			}
			if x > 2 {
				return 2
			}
			return x
		}),
		Running: running(g, func(_, q, x float64) float64 { return -q*q - x*x }),
	}
	sol, err := SolveHJB(p)
	if err != nil {
		t.Fatal(err)
	}
	n := 0 // t = 0, the fully-propagated level
	tau := T
	offset := sigma * sigma * math.Log(math.Cosh(tau))
	for j := 0; j < g.Q.N; j++ {
		q := g.Q.At(j)
		if q < 0 || q > 1 {
			continue // interior of the physical range only
		}
		want := -q*q*math.Tanh(tau) - offset
		got := sol.V[n][g.Idx(1, j)]
		if math.Abs(got-want) > 0.015 {
			t.Fatalf("stochastic LQR: V(0, q=%.3f) = %.5f, closed form %.5f", q, got, want)
		}
	}
}
