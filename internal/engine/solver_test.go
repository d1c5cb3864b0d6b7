package engine

import (
	"errors"
	"math"
	"testing"

	"repro/internal/grid"
	"repro/internal/mec"
	"repro/internal/pde"
)

// solverConfig is the 7×41×60 grid shared by the solver, telemetry and
// serialisation tests (smallConfig is the coarser session-test grid).
func solverConfig() Config {
	cfg := DefaultConfig(mec.Default())
	cfg.NH = 7
	cfg.NQ = 41
	cfg.Steps = 60
	cfg.MaxIters = 40
	return cfg
}

func defaultWorkload() Workload {
	return Workload{Requests: 10, Pop: 0.3, Timeliness: 2}
}

func solveSmall(t *testing.T) *Equilibrium {
	t.Helper()
	eq, err := Solve(solverConfig(), defaultWorkload())
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	return eq
}

func TestSolveConverges(t *testing.T) {
	eq := solveSmall(t)
	if !eq.Converged {
		t.Fatalf("not converged after %d iterations, residuals %v", eq.Iterations, eq.Residuals)
	}
	if eq.Iterations < 2 {
		t.Errorf("suspiciously fast convergence: %d iterations", eq.Iterations)
	}
	last := eq.Residuals[len(eq.Residuals)-1]
	if last >= eq.Config.Tol {
		t.Errorf("final residual %g not below tol %g", last, eq.Config.Tol)
	}
}

func TestSolveControlInRange(t *testing.T) {
	eq := solveSmall(t)
	for n := range eq.HJB.X {
		for k, x := range eq.HJB.X[n] {
			if x < 0 || x > 1 {
				t.Fatalf("control X[%d][%d] = %g outside [0,1]", n, k, x)
			}
		}
	}
}

func TestSolveDensityProper(t *testing.T) {
	eq := solveSmall(t)
	for n := range eq.FPK.Lambda {
		if m := eq.FPK.Mass(n); math.Abs(m-1) > 1e-6 {
			t.Fatalf("density mass at step %d = %g, want 1", n, m)
		}
		for k, v := range eq.FPK.Lambda[n] {
			if v < 0 || math.IsNaN(v) {
				t.Fatalf("bad density at step %d node %d: %g", n, k, v)
			}
		}
	}
}

func TestSolvePriceWithinBounds(t *testing.T) {
	eq := solveSmall(t)
	p := eq.Config.Params
	lo := math.Max(0, p.PHat-p.Eta1*p.Qk)
	for _, s := range eq.Snapshots {
		if s.Price < lo-1e-9 || s.Price > p.PHat+1e-9 {
			t.Fatalf("price %g at t=%g outside [%g, %g]", s.Price, s.T, lo, p.PHat)
		}
		if s.MeanControl < -1e-9 || s.MeanControl > 1+1e-9 {
			t.Fatalf("mean control %g at t=%g outside [0,1]", s.MeanControl, s.T)
		}
		if s.QBar < 0 || s.QBar > p.Qk+1e-9 {
			t.Fatalf("q̄ = %g at t=%g outside [0, Qk]", s.QBar, s.T)
		}
		if s.SharerFrac < -1e-9 || s.SharerFrac > 1+1e-9 {
			t.Fatalf("sharer fraction %g outside [0,1]", s.SharerFrac)
		}
		if s.Case3Frac < -1e-9 || s.Case3Frac > 1+1e-9 {
			t.Fatalf("case-3 fraction %g outside [0,1]", s.Case3Frac)
		}
		if s.ShareBenefit < 0 {
			t.Fatalf("sharing benefit %g negative", s.ShareBenefit)
		}
	}
}

// The caching strategy should increase with remaining space at a fixed time:
// an EDP with more free space caches at a higher rate (Fig. 5's main shape).
func TestSolveControlIncreasesWithRemainingSpace(t *testing.T) {
	eq := solveSmall(t)
	g := eq.Grid
	n := eq.Time.Steps / 4 // an interior time
	iMid := g.H.N / 2
	xLow := eq.HJB.X[n][g.Idx(iMid, 2)]        // little remaining space
	xHigh := eq.HJB.X[n][g.Idx(iMid, g.Q.N-3)] // lots of remaining space
	if xHigh < xLow-1e-6 {
		t.Errorf("x*(q small)=%g > x*(q large)=%g: expected non-decreasing in q", xLow, xHigh)
	}
	if xHigh <= 1e-9 {
		t.Errorf("equilibrium strategy is identically zero at high q — utility scale off (x=%g)", xHigh)
	}
}

func TestSolveDeterministic(t *testing.T) {
	eq1, err := Solve(solverConfig(), defaultWorkload())
	if err != nil {
		t.Fatal(err)
	}
	eq2, err := Solve(solverConfig(), defaultWorkload())
	if err != nil {
		t.Fatal(err)
	}
	for n := range eq1.HJB.V {
		for k := range eq1.HJB.V[n] {
			if eq1.HJB.V[n][k] != eq2.HJB.V[n][k] {
				t.Fatal("Solve is not deterministic")
			}
		}
	}
}

func TestSolveValidation(t *testing.T) {
	cfg := solverConfig()
	cfg.NH = 1
	if _, err := Solve(cfg, defaultWorkload()); err == nil {
		t.Error("tiny grid should be rejected")
	}
	cfg = solverConfig()
	cfg.Damping = 0
	if _, err := Solve(cfg, defaultWorkload()); err == nil {
		t.Error("zero damping should be rejected")
	}
	cfg = solverConfig()
	cfg.Tol = 0
	if _, err := Solve(cfg, defaultWorkload()); err == nil {
		t.Error("zero tolerance should be rejected")
	}
	cfg = solverConfig()
	cfg.InitLambda = make([]float64, 3)
	if _, err := Solve(cfg, defaultWorkload()); err == nil {
		t.Error("wrong-size InitLambda should be rejected")
	}
	w := defaultWorkload()
	w.Requests = -1
	if _, err := Solve(solverConfig(), w); err == nil {
		t.Error("negative requests should be rejected")
	}
	w = defaultWorkload()
	w.Pop = 2
	if _, err := Solve(solverConfig(), w); err == nil {
		t.Error("popularity > 1 should be rejected")
	}
}

func TestSolveNotConvergedError(t *testing.T) {
	cfg := solverConfig()
	cfg.MaxIters = 1
	cfg.Tol = 1e-12
	eq, err := Solve(cfg, defaultWorkload())
	if err == nil {
		t.Fatal("expected non-convergence error")
	}
	if !errors.Is(err, ErrNotConverged) {
		t.Fatalf("error should wrap ErrNotConverged, got %v", err)
	}
	if eq == nil {
		t.Fatal("partial equilibrium should still be returned")
	}
}

func TestEstimatorSnapshotUniform(t *testing.T) {
	p := mec.Default()
	hAxis, _ := grid.NewAxis(p.HMin, p.HMax, 5)
	qAxis, _ := grid.NewAxis(0, p.Qk, 21)
	g, _ := grid.NewGrid2D(hAxis, qAxis)
	est, err := NewEstimator(p, g)
	if err != nil {
		t.Fatal(err)
	}
	// Uniform density, constant control 0.5.
	lambda := g.NewField()
	area := (p.HMax - p.HMin) * p.Qk
	for k := range lambda {
		lambda[k] = 1 / area
	}
	x := g.NewField()
	for k := range x {
		x[k] = 0.5
	}
	s, err := est.Snapshot(0, lambda, x)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.MeanControl-0.5) > 1e-9 {
		t.Errorf("mean control = %g, want 0.5", s.MeanControl)
	}
	if math.Abs(s.QBar-p.Qk/2) > 1e-9 {
		t.Errorf("q̄ = %g, want %g", s.QBar, p.Qk/2)
	}
	if math.Abs(s.Price-mec.PriceMeanField(p, 0.5)) > 1e-12 {
		t.Errorf("price = %g disagrees with PriceMeanField", s.Price)
	}
	// Uniform over [0,Qk]: α = 0.2 of the mass is below αQk.
	if math.Abs(s.SharerFrac-p.Alpha) > 0.03 {
		t.Errorf("sharer fraction = %g, want ≈%g", s.SharerFrac, p.Alpha)
	}
}

func TestEstimatorRejectsBadInput(t *testing.T) {
	p := mec.Default()
	hAxis, _ := grid.NewAxis(p.HMin, p.HMax, 5)
	qAxis, _ := grid.NewAxis(0, p.Qk, 9)
	g, _ := grid.NewGrid2D(hAxis, qAxis)
	est, err := NewEstimator(p, g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := est.Snapshot(0, make([]float64, 3), g.NewField()); err == nil {
		t.Error("wrong-size lambda should be rejected")
	}
	if _, err := est.Snapshot(0, g.NewField(), g.NewField()); err == nil {
		t.Error("zero-mass density should be rejected")
	}
	bad := p
	bad.K = 0
	if _, err := NewEstimator(bad, g); err == nil {
		t.Error("invalid params should be rejected")
	}
}

func TestOptimalControlClamps(t *testing.T) {
	p := mec.Default()
	// Strongly negative ∂qV pushes the control to 1.
	if got := OptimalControl(p, -1e9); got != 1 {
		t.Errorf("control = %g, want clamp at 1", got)
	}
	// Positive ∂qV (more space is good) means no caching.
	if got := OptimalControl(p, 1e9); got != 0 {
		t.Errorf("control = %g, want clamp at 0", got)
	}
	// Interior: pick ∂qV to land at x = 0.5 and invert Eq. 21 by hand.
	target := 0.5
	dv := -(2*p.W5*target + p.W4 + p.Eta2*p.Qk/p.HubRate) / (p.Qk * p.W1)
	if got := OptimalControl(p, dv); math.Abs(got-target) > 1e-9 {
		t.Errorf("control = %g, want %g", got, target)
	}
}

// Nash property: unilateral constant deviations from the equilibrium strategy
// must not beat the equilibrium rollout by more than discretisation noise.
func TestNashDeviation(t *testing.T) {
	eq := solveSmall(t)
	p := eq.Config.Params
	h0, q0 := p.ChMean, 0.7*p.Qk
	roll, err := eq.SimulateRollout(h0, q0, 99)
	if err != nil {
		t.Fatal(err)
	}
	eqUtil, _ := roll.Final()
	// Allow a tolerance: the rollout discretises the SDE and the constant
	// deviations probe only a 1-D slice of the strategy space.
	tol := 0.05 * (math.Abs(eqUtil) + 1)
	for _, xc := range []float64{0, 0.25, 0.5, 0.75, 1} {
		dev, err := eq.DeviationUtility(h0, q0, xc, 99)
		if err != nil {
			t.Fatal(err)
		}
		if dev > eqUtil+tol {
			t.Errorf("constant deviation x=%g earns %g > equilibrium %g (+tol %g)", xc, dev, eqUtil, tol)
		}
	}
}

func TestRolloutShapes(t *testing.T) {
	eq := solveSmall(t)
	p := eq.Config.Params
	roll, err := eq.SimulateRollout(p.ChMean, 0.6*p.Qk, 7)
	if err != nil {
		t.Fatal(err)
	}
	n := eq.Time.Steps + 1
	if len(roll.Times) != n || len(roll.Q) != n || len(roll.Utility) != n {
		t.Fatalf("rollout has wrong lengths")
	}
	for i := range roll.Q {
		if roll.Q[i] < 0 || roll.Q[i] > p.Qk {
			t.Fatalf("q[%d] = %g escaped [0, Qk]", i, roll.Q[i])
		}
		if roll.H[i] < p.HMin || roll.H[i] > p.HMax {
			t.Fatalf("h[%d] = %g escaped fading range", i, roll.H[i])
		}
		if roll.X[i] < 0 || roll.X[i] > 1 {
			t.Fatalf("x[%d] = %g escaped [0,1]", i, roll.X[i])
		}
	}
	u, tr := roll.Final()
	if math.IsNaN(u) || math.IsNaN(tr) {
		t.Fatal("final utilities are NaN")
	}
	if tr < 0 {
		t.Errorf("cumulative trading income negative: %g", tr)
	}
	// Deterministic under the same seed.
	roll2, err := eq.SimulateRollout(p.ChMean, 0.6*p.Qk, 7)
	if err != nil {
		t.Fatal(err)
	}
	u2, _ := roll2.Final()
	if u != u2 {
		t.Error("rollout is not deterministic under a fixed seed")
	}
}

func TestRolloutRejectsBadInitialState(t *testing.T) {
	eq := solveSmall(t)
	if _, err := eq.SimulateRollout(-5, 50, 1); err == nil {
		t.Error("out-of-range h0 should be rejected")
	}
	if _, err := eq.SimulateRollout(5, 1e9, 1); err == nil {
		t.Error("out-of-range q0 should be rejected")
	}
}

func TestMarginalQIntegratesToOne(t *testing.T) {
	eq := solveSmall(t)
	for _, n := range []int{0, eq.Time.Steps / 2, eq.Time.Steps} {
		marg, err := eq.MarginalQ(n)
		if err != nil {
			t.Fatal(err)
		}
		// The FPK scheme conserves the finite-volume (rectangle-rule) mass,
		// so integrate the marginal the same way; density piling up at the
		// q=0 boundary makes the trapezoid rule undercount by design.
		var tot float64
		for _, v := range marg {
			tot += v
		}
		tot *= eq.Grid.Q.Step()
		if math.Abs(tot-1) > 0.02 {
			t.Errorf("marginal at step %d integrates to %g, want ≈1", n, tot)
		}
	}
	if _, err := eq.MarginalQ(-1); err == nil {
		t.Error("negative index should error")
	}
	if _, err := eq.MarginalQ(1 << 20); err == nil {
		t.Error("huge index should error")
	}
}

// The MFG baseline (sharing disabled) must also converge and produce a
// different equilibrium.
func TestSolveWithoutSharing(t *testing.T) {
	cfg := solverConfig()
	cfg.ShareEnabled = false
	eq, err := Solve(cfg, defaultWorkload())
	if err != nil {
		t.Fatalf("Solve without sharing: %v", err)
	}
	if !eq.Converged {
		t.Fatal("MFG baseline did not converge")
	}
	withShare := solveSmall(t)
	var diff float64
	for k := range eq.HJB.V[0] {
		diff = math.Max(diff, math.Abs(eq.HJB.V[0][k]-withShare.HJB.V[0][k]))
	}
	if diff < 1e-9 {
		t.Error("sharing on/off produced identical value functions")
	}
}

// The paper-literal advective FPK form also converges (ablation).
func TestSolveAdvectiveForm(t *testing.T) {
	cfg := solverConfig()
	cfg.FPKForm = pde.Advective
	eq, err := Solve(cfg, defaultWorkload())
	if err != nil {
		t.Fatalf("Solve with advective FPK: %v", err)
	}
	if !eq.Converged {
		t.Fatal("advective-form solve did not converge")
	}
}

func TestSnapshotAtClamps(t *testing.T) {
	eq := solveSmall(t)
	s := eq.SnapshotAt(-10)
	if s.T != 0 {
		t.Errorf("early snapshot at t=%g, want 0", s.T)
	}
	s = eq.SnapshotAt(1e9)
	if s.T != eq.Time.Horizon {
		t.Errorf("late snapshot at t=%g, want %g", s.T, eq.Time.Horizon)
	}
}

// The explicit-stepping ablation solves the same equilibrium (the default
// mesh satisfies the CFL bound) and lands near the implicit solution.
func TestSolveExplicitStepping(t *testing.T) {
	// Use a fine time mesh so the first-order-in-time discrepancy between
	// the schemes stays small through the fixed-point iteration.
	cfg := solverConfig()
	cfg.Steps = 240
	cfg.Scheme = "explicit"
	eq, err := Solve(cfg, defaultWorkload())
	if err != nil {
		t.Fatalf("explicit solve: %v", err)
	}
	if !eq.Converged {
		t.Fatal("explicit solve did not converge")
	}
	impCfg := solverConfig()
	impCfg.Steps = 240
	imp, err := Solve(impCfg, defaultWorkload())
	if err != nil {
		t.Fatal(err)
	}
	var worst float64
	for k := range eq.HJB.X[0] {
		if d := math.Abs(eq.HJB.X[0][k] - imp.HJB.X[0][k]); d > worst {
			worst = d
		}
	}
	if worst > 0.05 {
		t.Errorf("explicit and implicit strategies differ by %g at t=0", worst)
	}
}
