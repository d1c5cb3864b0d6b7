package pde

import (
	"errors"
	"math"
	"testing"

	"repro/internal/grid"
)

// The explicit conservative scheme agrees with the implicit scheme on a
// CFL-satisfying mesh, within the first-order-in-time discrepancy.
func TestExplicitMatchesImplicitFPK(t *testing.T) {
	g := testGrid(t, 9, 41)
	init := gaussianInit(t, g)
	run := func(scheme Scheme, steps int) *FPKSolution {
		p := &FPKProblem{
			Grid:   g,
			Time:   testMesh(t, 0.5, steps),
			DiffH:  0.01,
			DiffQ:  0.01,
			DriftH: func(_, h float64) float64 { return 0.3 * (0.5 - h) },
			DriftQ: drift(g, func(_, q float64) float64 { return 0.5 * (0.4 - q) }),
			Form:   Conservative,
			Scheme: scheme,
		}
		sol, err := SolveFPK(p, init)
		if err != nil {
			t.Fatalf("scheme %s: %v", scheme, err)
		}
		return sol
	}
	const steps = 4000 // fine mesh so both schemes are near the exact solution
	imp := run(Implicit, steps)
	exp := run(Explicit, steps)
	var worst float64
	last := len(imp.Lambda) - 1
	for k := range imp.Lambda[last] {
		if d := math.Abs(imp.Lambda[last][k] - exp.Lambda[last][k]); d > worst {
			worst = d
		}
	}
	// Densities peak around 10–15 on this grid; 1% agreement suffices.
	if worst > 0.15 {
		t.Errorf("implicit and explicit final densities differ by %g", worst)
	}
}

// The explicit scheme conserves mass exactly too (telescoping fluxes).
func TestExplicitFPKMassConservation(t *testing.T) {
	g := testGrid(t, 9, 21)
	p := &FPKProblem{
		Grid:   g,
		Time:   testMesh(t, 0.2, 2000),
		DiffH:  0.01,
		DiffQ:  0.01,
		DriftH: func(_, _ float64) float64 { return 0 },
		DriftQ: drift(g, func(_, q float64) float64 { return math.Sin(4 * q) }),
		Form:   Conservative,
		Scheme: Explicit,
	}
	sol, err := SolveFPK(p, gaussianInit(t, g))
	if err != nil {
		t.Fatal(err)
	}
	m0 := sol.Mass(0)
	for n := range sol.Lambda {
		if math.Abs(sol.Mass(n)-m0) > 1e-9 {
			t.Fatalf("mass drifted at step %d: %g vs %g", n, sol.Mass(n), m0)
		}
	}
}

// A too-coarse time mesh must be rejected with ErrCFLViolation, and the error
// must suggest a sufficient step count.
func TestExplicitFPKCFLViolation(t *testing.T) {
	g := testGrid(t, 5, 41)
	p := &FPKProblem{
		Grid:   g,
		Time:   testMesh(t, 1, 10), // far too few steps for dx=1/40, D=0.05
		DiffQ:  0.05,
		DriftH: func(_, _ float64) float64 { return 0 },
		DriftQ: uniformField(1),
		Form:   Conservative,
		Scheme: Explicit,
	}
	_, err := SolveFPK(p, gaussianInit(t, g))
	if err == nil {
		t.Fatal("expected CFL violation")
	}
	var cfl *ErrCFLViolation
	if !errors.As(err, &cfl) {
		t.Fatalf("error %v is not an ErrCFLViolation", err)
	}
	if cfl.Ratio <= 1 {
		t.Errorf("reported ratio %g should exceed 1", cfl.Ratio)
	}
	if cfl.NeedSteps <= 10 {
		t.Errorf("suggested steps %d should exceed the configured 10", cfl.NeedSteps)
	}
	// The suggestion should actually be stable.
	p.Time = grid.TimeMesh{Horizon: 1, Steps: cfl.NeedSteps + 1}
	if _, err := SolveFPK(p, gaussianInit(t, g)); err != nil {
		t.Errorf("suggested step count still unstable: %v", err)
	}
}

func TestExplicitRejectsAdvectiveForm(t *testing.T) {
	g := testGrid(t, 5, 5)
	p := &FPKProblem{
		Grid:   g,
		Time:   testMesh(t, 1, 100),
		DriftH: func(_, _ float64) float64 { return 0 },
		DriftQ: uniformField(0),
		Form:   Advective,
		Scheme: Explicit,
	}
	if _, err := SolveFPK(p, gaussianInit(t, g)); err == nil {
		t.Error("explicit + advective should be rejected")
	}
	p.Scheme = Scheme(99)
	p.Form = Conservative
	if _, err := SolveFPK(p, gaussianInit(t, g)); err == nil {
		t.Error("unknown scheme should be rejected")
	}
}

// The explicit HJB integrator reproduces the constant-utility solution and
// flags CFL violations.
func TestExplicitHJB(t *testing.T) {
	g := testGrid(t, 5, 5)
	p := &HJBProblem{
		Grid:    g,
		Time:    testMesh(t, 2, 400),
		DiffH:   0.001,
		DiffQ:   0.001,
		DriftH:  func(_, _ float64) float64 { return 0 },
		DriftQ:  uniform(0),
		Control: uniform(0),
		Running: uniform(3),
		Scheme:  Explicit,
	}
	sol, err := SolveHJB(p)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range sol.V[0] {
		if math.Abs(v-6) > 1e-9 {
			t.Fatalf("V(0)[%d] = %g, want 6", k, v)
		}
	}
	p.DiffQ = 10 // forces dt > CFL bound
	if _, err := SolveHJB(p); err == nil {
		t.Error("expected CFL violation in the HJB")
	}
	p.DiffQ = 0.001
	p.Scheme = Scheme(99)
	if _, err := SolveHJB(p); err == nil {
		t.Error("unknown scheme should be rejected")
	}
}

// Explicit and implicit HJB agree on a smooth advection-diffusion problem
// when both use a fine time mesh.
func TestExplicitMatchesImplicitHJB(t *testing.T) {
	g, err := grid.NewGrid2D(
		grid.Axis{Min: 0, Max: 1, N: 3},
		grid.Axis{Min: 0, Max: 1, N: 41},
	)
	if err != nil {
		t.Fatal(err)
	}
	run := func(scheme Scheme) *HJBSolution {
		p := &HJBProblem{
			Grid:    g,
			Time:    testMesh(t, 0.5, 4000),
			DiffQ:   0.01,
			DriftH:  func(_, _ float64) float64 { return 0 },
			DriftQ:  uniform(0.3),
			Control: uniform(0),
			Running: running(g, func(_, q, _ float64) float64 { return math.Sin(3 * q) }),
			Scheme:  scheme,
		}
		sol, err := SolveHJB(p)
		if err != nil {
			t.Fatalf("scheme %s: %v", scheme, err)
		}
		return sol
	}
	imp := run(Implicit)
	exp := run(Explicit)
	var worst float64
	for k := range imp.V[0] {
		if d := math.Abs(imp.V[0][k] - exp.V[0][k]); d > worst {
			worst = d
		}
	}
	if worst > 0.005 {
		t.Errorf("implicit and explicit HJB differ by %g", worst)
	}
}
