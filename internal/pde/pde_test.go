package pde

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/grid"
	"repro/internal/numerics"
)

func testGrid(t *testing.T, nh, nq int) grid.Grid2D {
	t.Helper()
	g, err := grid.NewGrid2D(
		grid.Axis{Min: 0, Max: 1, N: nh},
		grid.Axis{Min: 0, Max: 1, N: nq},
	)
	if err != nil {
		t.Fatalf("grid: %v", err)
	}
	return g
}

func testMesh(t *testing.T, horizon float64, steps int) grid.TimeMesh {
	t.Helper()
	tm, err := grid.NewTimeMesh(horizon, steps)
	if err != nil {
		t.Fatalf("mesh: %v", err)
	}
	return tm
}

// The helpers below lift pointwise test formulas to the level callbacks the
// solvers call, one whole field of a time level at a time.

// uniform fills every node with c (any HJB callback).
func uniform(c float64) func(int, []float64, []float64) {
	return func(_ int, _, out []float64) {
		for k := range out {
			out[k] = c
		}
	}
}

// pointwise maps the field in onto out node by node (Control, HJB DriftQ).
func pointwise(f func(v float64) float64) func(int, []float64, []float64) {
	return func(_ int, in, out []float64) {
		for k, v := range in {
			out[k] = f(v)
		}
	}
}

// running evaluates U(h, q, x) at every node of g (HJB Running).
func running(g grid.Grid2D, f func(h, q, x float64) float64) func(int, []float64, []float64) {
	return func(_ int, x, u []float64) {
		for k := range u {
			i, j := g.Coords(k)
			u[k] = f(g.H.At(i), g.Q.At(j), x[k])
		}
	}
}

// uniformField fills every node with c (FPK DriftQ).
func uniformField(c float64) func(int, []float64) {
	return func(_ int, b []float64) {
		for k := range b {
			b[k] = c
		}
	}
}

// drift evaluates b(h, q) at every node of g (FPK DriftQ).
func drift(g grid.Grid2D, f func(h, q float64) float64) func(int, []float64) {
	return func(_ int, b []float64) {
		for k := range b {
			i, j := g.Coords(k)
			b[k] = f(g.H.At(i), g.Q.At(j))
		}
	}
}

// --- HJB -------------------------------------------------------------------

// With zero dynamics and constant running utility c, V(0) = c·T exactly.
func TestHJBConstantRunningUtility(t *testing.T) {
	g := testGrid(t, 5, 5)
	p := &HJBProblem{
		Grid:    g,
		Time:    testMesh(t, 2, 40),
		DriftH:  func(_, _ float64) float64 { return 0 },
		DriftQ:  uniform(0),
		Control: uniform(0),
		Running: uniform(3),
	}
	sol, err := SolveHJB(p)
	if err != nil {
		t.Fatalf("SolveHJB: %v", err)
	}
	for k, v := range sol.V[0] {
		if math.Abs(v-6) > 1e-9 {
			t.Fatalf("V(0)[%d] = %g, want 6", k, v)
		}
	}
}

// TestCallbacksRunOncePerLevel pins the level contract: under both schemes,
// each model callback runs exactly once per time level per solve (the HJB
// callbacks on levels Steps−1 down to 0, the FPK drift on levels 0 up to
// Steps−1), every slice it gets is one field long, and Running and the HJB
// drift see Control's output clamped to [0, 1].
func TestCallbacksRunOncePerLevel(t *testing.T) {
	g := testGrid(t, 4, 6)
	tm := testMesh(t, 1, 5)
	// raw is Control's unclamped output: below 0, inside and above 1.
	raw := func(n, k int) float64 { return float64(k%3) - 0.5 + 0.1*float64(n) }
	for _, st := range []Scheme{Implicit, Explicit} {
		var calls []string
		record := func(name string, n int, fields ...[]float64) {
			for _, f := range fields {
				if len(f) != g.Size() {
					t.Fatalf("scheme %s: %s at level %d got %d nodes, want %d", st, name, n, len(f), g.Size())
				}
			}
			calls = append(calls, fmt.Sprintf("%s %d", name, n))
		}
		clamped := func(name string, n int, x []float64) {
			for k, v := range x {
				if want := numerics.Clamp01(raw(n, k)); v != want {
					t.Fatalf("scheme %s: %s at level %d sees x[%d] = %g, want the clamped control %g", st, name, n, k, v, want)
				}
			}
		}
		hjb := &HJBProblem{
			Grid:   g,
			Time:   tm,
			DriftH: func(_, _ float64) float64 { return 0 },
			Control: func(n int, dVdq, x []float64) {
				record("Control", n, dVdq, x)
				for k := range x {
					x[k] = raw(n, k)
				}
			},
			Running: func(n int, x, u []float64) {
				record("Running", n, x, u)
				clamped("Running", n, x)
				for k := range u {
					u[k] = 0
				}
			},
			DriftQ: func(n int, x, b []float64) {
				record("DriftQ", n, x, b)
				clamped("DriftQ", n, x)
				for k := range b {
					b[k] = 0
				}
			},
			Scheme: st,
		}
		sol, err := SolveHJB(hjb)
		if err != nil {
			t.Fatalf("SolveHJB: %v", err)
		}
		var want []string
		for n := tm.Steps - 1; n >= 0; n-- {
			want = append(want, fmt.Sprintf("Control %d", n), fmt.Sprintf("Running %d", n), fmt.Sprintf("DriftQ %d", n))
			clamped("the solution", n, sol.X[n])
		}
		if got := strings.Join(calls, ", "); got != strings.Join(want, ", ") {
			t.Fatalf("scheme %s: HJB callbacks ran as\n  %s\nwant\n  %s", st, got, strings.Join(want, ", "))
		}

		calls, want = nil, nil
		fpk := &FPKProblem{
			Grid:   g,
			Time:   tm,
			DriftH: func(_, _ float64) float64 { return 0 },
			DriftQ: func(n int, b []float64) {
				record("DriftQ", n, b)
				for k := range b {
					b[k] = 0
				}
			},
			Scheme: st,
		}
		init := make([]float64, g.Size())
		for k := range init {
			init[k] = 1
		}
		if _, err := SolveFPK(fpk, init); err != nil {
			t.Fatalf("SolveFPK: %v", err)
		}
		for n := 0; n < tm.Steps; n++ {
			want = append(want, fmt.Sprintf("DriftQ %d", n))
		}
		if got := strings.Join(calls, ", "); got != strings.Join(want, ", ") {
			t.Fatalf("scheme %s: FPK drift ran as\n  %s\nwant\n  %s", st, got, strings.Join(want, ", "))
		}
	}
}

// Diffusion does not disturb a spatially constant solution (Neumann BCs).
func TestHJBDiffusionPreservesConstant(t *testing.T) {
	g := testGrid(t, 9, 9)
	p := &HJBProblem{
		Grid:     g,
		Time:     testMesh(t, 1, 20),
		DiffH:    0.3,
		DiffQ:    0.2,
		DriftH:   func(_, _ float64) float64 { return 0 },
		DriftQ:   uniform(0),
		Control:  uniform(0),
		Running:  uniform(0),
		Terminal: func(_, _ float64) float64 { return 5 },
	}
	sol, err := SolveHJB(p)
	if err != nil {
		t.Fatalf("SolveHJB: %v", err)
	}
	for k, v := range sol.V[0] {
		if math.Abs(v-5) > 1e-9 {
			t.Fatalf("V(0)[%d] = %g, want 5", k, v)
		}
	}
}

// Discrete maximum principle: with zero running utility, V stays within the
// terminal bounds.
func TestHJBMaximumPrinciple(t *testing.T) {
	g := testGrid(t, 11, 11)
	p := &HJBProblem{
		Grid:    g,
		Time:    testMesh(t, 1, 30),
		DiffH:   0.1,
		DiffQ:   0.1,
		DriftH:  func(_, h float64) float64 { return 0.5 - h },
		DriftQ:  pointwise(func(x float64) float64 { return -0.3 * x }),
		Control: pointwise(func(dV float64) float64 { return numerics.Clamp01(-dV) }),
		Running: uniform(0),
		Terminal: func(h, q float64) float64 {
			return math.Sin(3*h) * math.Cos(2*q) // values in [-1, 1]
		},
	}
	sol, err := SolveHJB(p)
	if err != nil {
		t.Fatalf("SolveHJB: %v", err)
	}
	for n := range sol.V {
		for k, v := range sol.V[n] {
			if v > 1+1e-9 || v < -1-1e-9 {
				t.Fatalf("V[%d][%d] = %g violates the maximum principle", n, k, v)
			}
		}
	}
}

// Pure advection in q: V(t, q) = Terminal(q + b·(T−t)) for drift b.
// The upwind scheme smears but must move the bump the right distance.
func TestHJBAdvectionTransport(t *testing.T) {
	g, err := grid.NewGrid2D(
		grid.Axis{Min: 0, Max: 1, N: 3},
		grid.Axis{Min: 0, Max: 10, N: 201},
	)
	if err != nil {
		t.Fatal(err)
	}
	b := 2.0 // constant positive drift
	p := &HJBProblem{
		Grid:    g,
		Time:    testMesh(t, 1, 400),
		DriftH:  func(_, _ float64) float64 { return 0 },
		DriftQ:  uniform(b),
		Control: uniform(0),
		Running: uniform(0),
		Terminal: func(_, q float64) float64 {
			d := q - 7
			return math.Exp(-d * d) // bump at q=7
		},
	}
	sol, err := SolveHJB(p)
	if err != nil {
		t.Fatalf("SolveHJB: %v", err)
	}
	// At t=0 the bump should sit near q = 7 − b·T = 5.
	var peakQ float64
	best := math.Inf(-1)
	for j := 0; j < g.Q.N; j++ {
		v := sol.V[0][g.Idx(1, j)]
		if v > best {
			best = v
			peakQ = g.Q.At(j)
		}
	}
	if math.Abs(peakQ-5) > 0.3 {
		t.Errorf("advected peak at q=%g, want ≈5", peakQ)
	}
}

func TestHJBValidation(t *testing.T) {
	g := testGrid(t, 5, 5)
	base := func() *HJBProblem {
		return &HJBProblem{
			Grid:    g,
			Time:    testMesh(t, 1, 5),
			DriftH:  func(_, _ float64) float64 { return 0 },
			DriftQ:  uniform(0),
			Control: uniform(0),
			Running: uniform(0),
		}
	}
	p := base()
	p.Running = nil
	if _, err := SolveHJB(p); err == nil {
		t.Error("missing Running should be rejected")
	}
	p = base()
	p.DiffH = -1
	if _, err := SolveHJB(p); err == nil {
		t.Error("negative diffusion should be rejected")
	}
	p = base()
	p.Time = grid.TimeMesh{Horizon: 1, Steps: 0}
	if _, err := SolveHJB(p); err == nil {
		t.Error("empty time mesh should be rejected")
	}
}

func TestHJBSolutionInterpolators(t *testing.T) {
	g := testGrid(t, 5, 5)
	p := &HJBProblem{
		Grid:    g,
		Time:    testMesh(t, 1, 10),
		DriftH:  func(_, _ float64) float64 { return 0 },
		DriftQ:  uniform(0),
		Control: uniform(0.5),
		Running: uniform(1),
	}
	sol, err := SolveHJB(p)
	if err != nil {
		t.Fatal(err)
	}
	v, err := sol.ValueAt(0, 0.5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-1) > 1e-9 {
		t.Errorf("ValueAt(0) = %g, want 1", v)
	}
	x, err := sol.ControlAt(0.5, 0.5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if x != 0.5 {
		t.Errorf("ControlAt = %g, want 0.5", x)
	}
	// Out-of-range times clamp.
	if _, err := sol.ValueAt(-5, 0.5, 0.5); err != nil {
		t.Errorf("negative time should clamp, got error %v", err)
	}
	if _, err := sol.ValueAt(99, 0.5, 0.5); err != nil {
		t.Errorf("late time should clamp, got error %v", err)
	}
}

// --- FPK -------------------------------------------------------------------

func gaussianInit(t *testing.T, g grid.Grid2D) []float64 {
	t.Helper()
	f, err := GaussianDensity(g, 0.5, 0.15, 0.5, 0.1)
	if err != nil {
		t.Fatalf("GaussianDensity: %v", err)
	}
	return f
}

func TestGaussianDensityUnitMass(t *testing.T) {
	g := testGrid(t, 21, 21)
	f := gaussianInit(t, g)
	var m float64
	for _, v := range f {
		m += v
	}
	m *= g.CellArea()
	if math.Abs(m-1) > 1e-9 {
		t.Errorf("mass = %g, want 1", m)
	}
	for k, v := range f {
		if v < 0 {
			t.Fatalf("negative density at %d: %g", k, v)
		}
	}
	if _, err := GaussianDensity(g, 0.5, 0, 0.5, 0.1); err == nil {
		t.Error("zero sd should be rejected")
	}
}

// Conservative form: mass is conserved to round-off even with strongly
// state-dependent drift, without renormalisation.
func TestFPKConservativeMassExact(t *testing.T) {
	g := testGrid(t, 15, 15)
	p := &FPKProblem{
		Grid:        g,
		Time:        testMesh(t, 1, 50),
		DiffH:       0.02,
		DiffQ:       0.02,
		DriftH:      func(_, h float64) float64 { return 0.5 - h },
		DriftQ:      drift(g, func(h, q float64) float64 { return math.Sin(5*q) * math.Cos(3*h) }),
		Form:        Conservative,
		Renormalize: false,
	}
	sol, err := SolveFPK(p, gaussianInit(t, g))
	if err != nil {
		t.Fatalf("SolveFPK: %v", err)
	}
	m0 := sol.Mass(0)
	for n := range sol.Lambda {
		if math.Abs(sol.Mass(n)-m0) > 1e-9 {
			t.Fatalf("mass at step %d drifted: %g vs %g", n, sol.Mass(n), m0)
		}
	}
}

// Positivity: the density never goes negative.
func TestFPKPositivity(t *testing.T) {
	g := testGrid(t, 15, 15)
	p := &FPKProblem{
		Grid:   g,
		Time:   testMesh(t, 1, 50),
		DiffH:  0.05,
		DiffQ:  0.05,
		DriftH: func(_, h float64) float64 { return 2 * (0.2 - h) },
		DriftQ: drift(g, func(_, q float64) float64 { return 3 * (0.8 - q) }),
		Form:   Conservative,
	}
	sol, err := SolveFPK(p, gaussianInit(t, g))
	if err != nil {
		t.Fatalf("SolveFPK: %v", err)
	}
	for n := range sol.Lambda {
		for k, v := range sol.Lambda[n] {
			if v < 0 {
				t.Fatalf("negative density at step %d node %d: %g", n, k, v)
			}
		}
	}
}

// Constant advection moves the centre of mass at the drift velocity.
func TestFPKAdvectionMovesMean(t *testing.T) {
	g, err := grid.NewGrid2D(
		grid.Axis{Min: 0, Max: 1, N: 3},
		grid.Axis{Min: 0, Max: 10, N: 201},
	)
	if err != nil {
		t.Fatal(err)
	}
	init, err := GaussianDensity(g, 0.5, 0.3, 3, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	b := 2.0
	p := &FPKProblem{
		Grid:   g,
		Time:   testMesh(t, 1, 200),
		DiffQ:  0.001,
		DriftH: func(_, _ float64) float64 { return 0 },
		DriftQ: uniformField(b),
		Form:   Conservative,
	}
	sol, err := SolveFPK(p, init)
	if err != nil {
		t.Fatal(err)
	}
	meanQ := func(f []float64) float64 {
		var num, den float64
		for i := 0; i < g.H.N; i++ {
			for j := 0; j < g.Q.N; j++ {
				v := f[g.Idx(i, j)]
				num += v * g.Q.At(j)
				den += v
			}
		}
		return num / den
	}
	shift := meanQ(sol.Lambda[len(sol.Lambda)-1]) - meanQ(sol.Lambda[0])
	if math.Abs(shift-b) > 0.1 {
		t.Errorf("mean moved %g over T=1, want ≈%g", shift, b)
	}
}

// Pure diffusion spreads a Gaussian at the analytic rate: Var(t) = Var(0)+2Dt
// while the mass stays far from the boundaries.
func TestFPKDiffusionVarianceGrowth(t *testing.T) {
	g, err := grid.NewGrid2D(
		grid.Axis{Min: 0, Max: 1, N: 3},
		grid.Axis{Min: 0, Max: 10, N: 201},
	)
	if err != nil {
		t.Fatal(err)
	}
	init, err := GaussianDensity(g, 0.5, 0.3, 5, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	D := 0.05
	p := &FPKProblem{
		Grid:   g,
		Time:   testMesh(t, 1, 200),
		DiffQ:  D,
		DriftH: func(_, _ float64) float64 { return 0 },
		DriftQ: uniformField(0),
		Form:   Conservative,
	}
	sol, err := SolveFPK(p, init)
	if err != nil {
		t.Fatal(err)
	}
	varQ := func(f []float64) float64 {
		var num, den, mean float64
		for i := 0; i < g.H.N; i++ {
			for j := 0; j < g.Q.N; j++ {
				v := f[g.Idx(i, j)]
				num += v * g.Q.At(j)
				den += v
			}
		}
		mean = num / den
		var acc float64
		for i := 0; i < g.H.N; i++ {
			for j := 0; j < g.Q.N; j++ {
				d := g.Q.At(j) - mean
				acc += f[g.Idx(i, j)] * d * d
			}
		}
		return acc / den
	}
	v0 := varQ(sol.Lambda[0])
	v1 := varQ(sol.Lambda[len(sol.Lambda)-1])
	want := v0 + 2*D
	if math.Abs(v1-want)/want > 0.05 {
		t.Errorf("variance after T=1: %g, want ≈%g (started at %g)", v1, want, v0)
	}
}

// OU drift relaxes the density toward the stationary Gaussian: for
// b(q) = θ(μ−q) with diffusion D, Var_∞ = D/θ. The first-order upwind scheme
// adds numerical diffusion ≈ |b|·dx/2, so the error must shrink roughly
// linearly under grid refinement.
func TestFPKOUStationaryVariance(t *testing.T) {
	theta, mu, D := 2.0, 5.0, 0.08
	wantVar := D / theta

	run := func(nq, steps int) float64 {
		g, err := grid.NewGrid2D(
			grid.Axis{Min: 0, Max: 1, N: 3},
			grid.Axis{Min: 0, Max: 10, N: nq},
		)
		if err != nil {
			t.Fatal(err)
		}
		init, err := GaussianDensity(g, 0.5, 0.3, 6, 0.7)
		if err != nil {
			t.Fatal(err)
		}
		p := &FPKProblem{
			Grid:   g,
			Time:   testMesh(t, 6, steps), // long enough to equilibrate
			DiffQ:  D,
			DriftH: func(_, _ float64) float64 { return 0 },
			DriftQ: drift(g, func(_, q float64) float64 { return theta * (mu - q) }),
			Form:   Conservative,
		}
		sol, err := SolveFPK(p, init)
		if err != nil {
			t.Fatal(err)
		}
		last := sol.Lambda[len(sol.Lambda)-1]
		var num, den float64
		for i := 0; i < g.H.N; i++ {
			for j := 0; j < g.Q.N; j++ {
				v := last[g.Idx(i, j)]
				num += v * g.Q.At(j)
				den += v
			}
		}
		mean := num / den
		if math.Abs(mean-mu) > 0.05 {
			t.Errorf("stationary mean %g, want ≈%g", mean, mu)
		}
		var acc float64
		for i := 0; i < g.H.N; i++ {
			for j := 0; j < g.Q.N; j++ {
				d := g.Q.At(j) - mean
				acc += last[g.Idx(i, j)] * d * d
			}
		}
		return acc / den
	}

	coarse := math.Abs(run(201, 600) - wantVar)
	fine := math.Abs(run(401, 1200) - wantVar)
	if fine/wantVar > 0.15 {
		t.Errorf("fine-grid stationary variance error %g of %g exceeds 15%%", fine, wantVar)
	}
	if fine > 0.75*coarse {
		t.Errorf("refinement did not reduce the error: coarse %g, fine %g", coarse, fine)
	}
}

// The advective (paper-literal) form loses mass under state-dependent drift;
// renormalisation restores it and RawMass records the loss.
func TestFPKAdvectiveFormMassDrift(t *testing.T) {
	g := testGrid(t, 15, 15)
	mk := func(form FPKForm, renorm bool) *FPKSolution {
		p := &FPKProblem{
			Grid:        g,
			Time:        testMesh(t, 1, 50),
			DiffH:       0.02,
			DiffQ:       0.02,
			DriftH:      func(_, h float64) float64 { return 0.5 - h },
			DriftQ:      drift(g, func(_, q float64) float64 { return 2 * (0.3 - q) }), // ∂q b ≠ 0
			Form:        form,
			Renormalize: renorm,
		}
		sol, err := SolveFPK(p, gaussianInit(t, g))
		if err != nil {
			t.Fatalf("SolveFPK: %v", err)
		}
		return sol
	}
	adv := mk(Advective, true)
	n := len(adv.RawMass) - 1
	if math.Abs(adv.RawMass[n]-adv.RawMass[0]) < 1e-6 {
		t.Error("advective form should show raw mass drift under ∂q b ≠ 0")
	}
	if math.Abs(adv.Mass(n)-adv.Mass(0)) > 1e-9 {
		t.Error("renormalisation should restore the mass")
	}
	cons := mk(Conservative, false)
	if math.Abs(cons.RawMass[n]-cons.RawMass[0]) > 1e-9 {
		t.Error("conservative form must not drift")
	}
}

func TestFPKValidation(t *testing.T) {
	g := testGrid(t, 5, 5)
	base := func() *FPKProblem {
		return &FPKProblem{
			Grid:   g,
			Time:   testMesh(t, 1, 5),
			DriftH: func(_, _ float64) float64 { return 0 },
			DriftQ: uniformField(0),
		}
	}
	p := base()
	p.DriftQ = nil
	if _, err := SolveFPK(p, gaussianInit(t, g)); err == nil {
		t.Error("missing DriftQ should be rejected")
	}
	p = base()
	if _, err := SolveFPK(p, make([]float64, 3)); err == nil {
		t.Error("wrong-size initial density should be rejected")
	}
	p = base()
	bad := gaussianInit(t, g)
	bad[0] = -1
	if _, err := SolveFPK(p, bad); err == nil {
		t.Error("negative initial density should be rejected")
	}
	p = base()
	bad = gaussianInit(t, g)
	bad[1] = math.Inf(1)
	if _, err := SolveFPK(p, bad); err == nil {
		t.Error("infinite initial density should be rejected")
	}
	p = base()
	p.Form = FPKForm(99)
	if _, err := SolveFPK(p, gaussianInit(t, g)); err == nil {
		t.Error("unknown form should be rejected")
	}
}

func TestFPKDensityAt(t *testing.T) {
	g := testGrid(t, 11, 11)
	p := &FPKProblem{
		Grid:   g,
		Time:   testMesh(t, 1, 10),
		DiffH:  0.01,
		DiffQ:  0.01,
		DriftH: func(_, _ float64) float64 { return 0 },
		DriftQ: uniformField(0),
	}
	sol, err := SolveFPK(p, gaussianInit(t, g))
	if err != nil {
		t.Fatal(err)
	}
	v, err := sol.DensityAt(0.5, 0.5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if v <= 0 {
		t.Errorf("central density should be positive, got %g", v)
	}
	if _, err := sol.DensityAt(-1, 0.5, 0.5); err != nil {
		t.Errorf("early time should clamp: %v", err)
	}
}
