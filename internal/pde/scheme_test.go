package pde

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/grid"
	"repro/internal/linalg"
)

func schemeTestGrid(t *testing.T) (grid.Grid2D, grid.TimeMesh) {
	t.Helper()
	hAxis, err := grid.NewAxis(1, 10, 9)
	if err != nil {
		t.Fatal(err)
	}
	qAxis, err := grid.NewAxis(0, 100, 21)
	if err != nil {
		t.Fatal(err)
	}
	g, err := grid.NewGrid2D(hAxis, qAxis)
	if err != nil {
		t.Fatal(err)
	}
	// Many small steps: the explicit scheme needs the CFL bound satisfied,
	// and the first-order-in-time schemes approach each other as dt → 0.
	tm, err := grid.NewTimeMesh(1, 400)
	if err != nil {
		t.Fatal(err)
	}
	return g, tm
}

func TestParseScheme(t *testing.T) {
	for _, sch := range []Scheme{Implicit, Explicit} {
		got, err := ParseScheme(sch.String())
		if err != nil || got != sch {
			t.Errorf("ParseScheme(%q) = %v, %v, want %v", sch.String(), got, err, sch)
		}
	}
	if sch, err := ParseScheme(""); err != nil || sch != Implicit {
		t.Errorf("empty scheme name: got %v, %v, want the implicit default", sch, err)
	}
	if _, err := ParseScheme("runge-kutta-9000"); err == nil {
		t.Errorf("unknown scheme name accepted")
	}
	if got := Scheme(99).String(); got != "Scheme(99)" {
		t.Errorf("Scheme(99).String() = %q", got)
	}
}

// TestSchemeEquivalenceHJB solves one backward problem with the implicit and
// explicit integrators on a fine time mesh: both are first-order consistent
// discretisations of the same operator, so they must agree within the O(dt)
// splitting tolerance.
func TestSchemeEquivalenceHJB(t *testing.T) {
	g, tm := schemeTestGrid(t)
	mk := func(st Scheme) *HJBProblem {
		return &HJBProblem{
			Grid:    g,
			Time:    tm,
			DiffH:   0.05,
			DiffQ:   0.4,
			DriftH:  func(_, h float64) float64 { return 2 * (5 - h) },
			DriftQ:  pointwise(func(x float64) float64 { return -40 * x }),
			Control: pointwise(func(dVdq float64) float64 { return 0.5 - 0.01*dVdq }),
			Running: running(g, func(h, q, x float64) float64 { return 2*h - 0.01*q - x*x }),
			Scheme:  st,
		}
	}
	imp, err := SolveHJB(mk(Implicit))
	if err != nil {
		t.Fatalf("implicit solve: %v", err)
	}
	exp, err := SolveHJB(mk(Explicit))
	if err != nil {
		t.Fatalf("explicit solve: %v", err)
	}
	var worstV, worstX, scale float64
	for k := range imp.V[0] {
		if d := math.Abs(imp.V[0][k] - exp.V[0][k]); d > worstV {
			worstV = d
		}
		if a := math.Abs(imp.V[0][k]); a > scale {
			scale = a
		}
		if d := math.Abs(imp.X[0][k] - exp.X[0][k]); d > worstX {
			worstX = d
		}
	}
	if worstV > 0.02*scale {
		t.Errorf("implicit and explicit value functions diverge: |ΔV| = %g, scale %g", worstV, scale)
	}
	if worstX > 0.05 {
		t.Errorf("implicit and explicit controls diverge: |Δx| = %g", worstX)
	}
}

// TestSchemeEquivalenceFPK transports one density with both integrators and
// compares the final-time field and its mass.
func TestSchemeEquivalenceFPK(t *testing.T) {
	g, tm := schemeTestGrid(t)
	lambda0, err := GaussianDensity(g, 5, 1.5, 70, 10)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(st Scheme) *FPKProblem {
		return &FPKProblem{
			Grid:        g,
			Time:        tm,
			DiffH:       0.05,
			DiffQ:       0.4,
			DriftH:      func(_, h float64) float64 { return 2 * (5 - h) },
			DriftQ:      drift(g, func(_, q float64) float64 { return -0.3 * q / 100 * 40 }),
			Form:        Conservative,
			Scheme:      st,
			Renormalize: true,
		}
	}
	imp, err := SolveFPK(mk(Implicit), lambda0)
	if err != nil {
		t.Fatalf("implicit solve: %v", err)
	}
	exp, err := SolveFPK(mk(Explicit), lambda0)
	if err != nil {
		t.Fatalf("explicit solve: %v", err)
	}
	n := tm.Steps
	var worst, peak float64
	for k := range imp.Lambda[n] {
		if d := math.Abs(imp.Lambda[n][k] - exp.Lambda[n][k]); d > worst {
			worst = d
		}
		if imp.Lambda[n][k] > peak {
			peak = imp.Lambda[n][k]
		}
	}
	if worst > 0.05*peak {
		t.Errorf("implicit and explicit densities diverge: |Δλ| = %g, peak %g", worst, peak)
	}
	if d := math.Abs(imp.Mass(n) - exp.Mass(n)); d > 1e-6 {
		t.Errorf("final masses diverge by %g", d)
	}
}

// TestSolveIntoRejectsMismatchedBuffers covers the defensive checks of the
// preallocated entry points.
func TestSolveIntoRejectsMismatchedBuffers(t *testing.T) {
	g, tm := schemeTestGrid(t)
	smallH, _ := grid.NewAxis(1, 10, 5)
	smallQ, _ := grid.NewAxis(0, 100, 7)
	gSmall, err := grid.NewGrid2D(smallH, smallQ)
	if err != nil {
		t.Fatal(err)
	}
	wsWrong, err := NewWorkspace(gSmall)
	if err != nil {
		t.Fatal(err)
	}
	p := &HJBProblem{
		Grid:    g,
		Time:    tm,
		DriftH:  func(_, h float64) float64 { return -h },
		DriftQ:  pointwise(func(x float64) float64 { return -x }),
		Control: uniform(0),
		Running: uniform(0),
	}
	if err := SolveHJBInto(wsWrong, p, NewHJBSolution(g, tm)); err == nil {
		t.Errorf("mismatched workspace accepted")
	}
	ws, err := NewWorkspace(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := SolveHJBInto(ws, p, NewHJBSolution(gSmall, tm)); err == nil {
		t.Errorf("mismatched solution holder accepted")
	}
}

// The unknown-scheme error lists every scheme name.
func TestSchemeNamesDerivedFromRegistry(t *testing.T) {
	if _, err := ParseScheme("nope"); err == nil || !strings.Contains(err.Error(), "implicit, explicit") {
		t.Errorf("unknown-scheme error should list the scheme names, got %v", err)
	}
}

// A vanishing pivot in the lock-step q-phase names the lowest failing q-line
// as the row and that line's first zero pivot: the text solving the lines
// one by one gives.
func TestQSweepSingularErrorNamesLine(t *testing.T) {
	g, _ := schemeTestGrid(t)
	ws, err := NewWorkspace(g)
	if err != nil {
		t.Fatal(err)
	}
	nh, nq := g.H.N, g.Q.N
	field := g.NewField()
	drift := make([]float64, nq)
	for i := 0; i < nh; i++ {
		ws.loadQLine(i, opBackwardValue, field[i*nq:(i+1)*nq], drift, 0.01, g.Q.Step(), 1)
	}
	// Zero pivots at (line 4, row 2), (line 1, row 7) and (line 1, row 9).
	for _, lr := range [][2]int{{4, 2}, {1, 7}, {1, 9}} {
		k := lr[1]*nh + lr[0]
		ws.qLines.A[k], ws.qLines.B[k] = 0, 0
	}
	err = qSweepError("HJB", 0.25, ws.solveQLines(field))
	if !errors.Is(err, linalg.ErrSingular) {
		t.Fatalf("got %v, want ErrSingular", err)
	}
	want := "pde: HJB q-sweep at t=0.25, row 1: linalg: matrix is singular to working precision: zero pivot at row 7"
	if err.Error() != want {
		t.Errorf("error text\n got %q\nwant %q", err, want)
	}
}
