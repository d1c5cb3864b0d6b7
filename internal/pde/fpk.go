package pde

import (
	"errors"
	"fmt"
	"log/slog"
	"math"

	"repro/internal/grid"
	"repro/internal/numerics"
	"repro/internal/obs"
)

// FPKForm selects the spatial discretisation of the forward equation.
type FPKForm int

const (
	// Conservative solves the divergence (Kolmogorov-forward) form
	// ∂tλ + ∂h(b_h λ) + ∂q(b_q λ) = D_h ∂hhλ + D_q ∂qqλ with zero-flux
	// boundaries. Mass is conserved to round-off and the density stays
	// non-negative. This is the default.
	Conservative FPKForm = iota
	// Advective solves the paper-literal non-conservative form of Eq. (15),
	// ∂tλ + b_h ∂hλ + b_q ∂qλ = D_h ∂hhλ + D_q ∂qqλ, kept as an ablation.
	// It loses mass wherever ∂q b_q ≠ 0 (the control depends on q); the
	// solver renormalises when Renormalize is set and reports the raw drift.
	Advective
)

// FPKProblem specifies the forward transport of the mean-field density λ.
type FPKProblem struct {
	Grid grid.Grid2D
	Time grid.TimeMesh

	DiffH, DiffQ float64 // ½ϱh², ½ϱq²

	// DriftH is the channel drift at (t, h) (shared with the HJB problem).
	DriftH func(t, h float64) float64
	// DriftQ writes into b the remaining-space drift at every node of level
	// n with the optimal control already substituted:
	// b_q(t_n, h, q) = Qk[−w1·x*(t_n,h,q) − …]. b is a field of level n,
	// flattened like grid.Grid2D.
	DriftQ func(n int, b []float64)

	Form FPKForm
	// Scheme selects implicit (default, unconditionally stable) or
	// explicit (CFL-bounded, ablation) time integration. The explicit
	// integrator supports the conservative form only.
	Scheme Scheme
	// Renormalize rescales the density to unit mass after every step. With
	// the conservative form this only removes round-off; with the advective
	// form it compensates the structural mass loss.
	Renormalize bool

	// Obs receives solve/sweep telemetry ("pde.fpk.*" names); nil means
	// no-op. The MFG layer threads engine.Config.Obs through here.
	Obs obs.Recorder
}

// Validate checks that the problem is completely specified.
func (p *FPKProblem) Validate() error {
	if p.DriftH == nil || p.DriftQ == nil {
		return errors.New("pde: FPKProblem: DriftH and DriftQ are required")
	}
	if p.DiffH < 0 || p.DiffQ < 0 {
		return fmt.Errorf("pde: FPKProblem: diffusion coefficients must be non-negative, got %g, %g", p.DiffH, p.DiffQ)
	}
	if err := p.Grid.H.Validate(); err != nil {
		return err
	}
	if err := p.Grid.Q.Validate(); err != nil {
		return err
	}
	if p.Time.Steps < 1 {
		return fmt.Errorf("pde: FPKProblem: time mesh needs ≥1 step, got %d", p.Time.Steps)
	}
	if p.Form != Conservative && p.Form != Advective {
		return fmt.Errorf("pde: FPKProblem: unknown form %d", int(p.Form))
	}
	if err := p.Scheme.Validate(); err != nil {
		return err
	}
	if p.Scheme == Explicit && p.Form != Conservative {
		return fmt.Errorf("pde: FPKProblem: the explicit integrator supports the conservative form only")
	}
	return nil
}

// FPKSolution stores the density at every time node and the mass trajectory
// before renormalisation (a diagnostic for the advective ablation).
type FPKSolution struct {
	Grid    grid.Grid2D
	Time    grid.TimeMesh
	Lambda  [][]float64 // density at t_n, flattened
	RawMass []float64   // ∫∫λ before renormalisation at each step
}

// DensityAt bilinearly interpolates λ at (t, h, q).
func (s *FPKSolution) DensityAt(t, h, q float64) (float64, error) {
	n := timeLevel(t, s.Time.Dt(), s.Time.Steps)
	return numerics.InterpBilinear(s.Grid, s.Lambda[n], h, q)
}

// Mass returns the rectangle-rule mass Σλ·dh·dq of the density at time index n.
func (s *FPKSolution) Mass(n int) float64 {
	var sum float64
	for _, v := range s.Lambda[n] {
		sum += v
	}
	return sum * s.Grid.CellArea()
}

// NewFPKSolution preallocates a solution holder (every time level of Lambda
// gets its own field) so repeated solves on the same mesh can reuse it via
// SolveFPKInto without allocating.
func NewFPKSolution(g grid.Grid2D, tm grid.TimeMesh) *FPKSolution {
	sol := &FPKSolution{
		Grid:    g,
		Time:    tm,
		Lambda:  make([][]float64, tm.Steps+1),
		RawMass: make([]float64, tm.Steps+1),
	}
	for n := range sol.Lambda {
		sol.Lambda[n] = g.NewField()
	}
	return sol
}

// sized reports whether the solution holder matches the problem's grid and
// time mesh.
func (s *FPKSolution) sized(g grid.Grid2D, tm grid.TimeMesh) bool {
	return s != nil && s.Grid == g && s.Time.Steps == tm.Steps &&
		len(s.Lambda) == tm.Steps+1 && len(s.RawMass) == tm.Steps+1
}

// SolveFPK integrates the forward equation from the initial density λ0
// (flattened over the grid) through the whole time mesh using Lie splitting
// with one sweep per dimension per step (implicit tridiagonal by default).
func SolveFPK(p *FPKProblem, lambda0 []float64) (*FPKSolution, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	ws, err := NewWorkspace(p.Grid)
	if err != nil {
		return nil, err
	}
	sol := NewFPKSolution(p.Grid, p.Time)
	if err := SolveFPKInto(ws, p, lambda0, sol); err != nil {
		return nil, err
	}
	return sol, nil
}

// SolveFPKInto is the allocation-free core of SolveFPK: it transports λ0
// through the time mesh with the problem's scheme, reusing the workspace
// buffers and writing every time level into the preallocated solution.
func SolveFPKInto(ws *Workspace, p *FPKProblem, lambda0 []float64, sol *FPKSolution) error {
	if err := p.Validate(); err != nil {
		return err
	}
	g := p.Grid
	if err := checkField("initial density", lambda0, g.Size()); err != nil {
		return err
	}
	for _, v := range lambda0 {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("pde: SolveFPK: initial density must be non-negative and finite, found %g", v)
		}
	}
	if !ws.fits(g) {
		return fmt.Errorf("pde: SolveFPKInto: workspace sized for %dx%d, problem grid is %dx%d",
			ws.g.H.N, ws.g.Q.N, g.H.N, g.Q.N)
	}
	if !sol.sized(g, p.Time) {
		return errors.New("pde: SolveFPKInto: solution holder does not match the problem mesh (use NewFPKSolution)")
	}
	nh, nq := g.H.N, g.Q.N
	steps := p.Time.Steps
	cell := g.CellArea()

	rec := obs.OrNop(p.Obs)
	span := rec.Start("pde.fpk.solve")

	copy(sol.Lambda[0], lambda0)
	sol.RawMass[0] = mass(sol.Lambda[0], cell)

	for n := 0; n < steps; n++ {
		next := sol.Lambda[n+1]
		copy(next, sol.Lambda[n])

		if err := stepForward(ws, p, n, next); err != nil {
			return err
		}

		m := mass(next, cell)
		sol.RawMass[n+1] = m
		// One pass renormalises (a scale of 1 leaves every value as it is)
		// and clips the tiny negative undershoots that renormalisation of
		// the advective form can introduce (the conservative form never does).
		scale := 1.0
		if p.Renormalize && m > 0 {
			scale = sol.RawMass[0] / m
		}
		for k, v := range next {
			v *= scale
			if v < 0 {
				v = 0
			}
			next[k] = v
		}
	}
	rec.Add("pde.fpk.solves", 1)
	rec.Add("pde.fpk.steps", float64(steps))
	rec.Add("pde.fpk.sweeps", float64(steps*(nh+nq)))
	if rec.Enabled() {
		span.End(slog.Int("steps", steps), slog.Int("nh", nh), slog.Int("nq", nq),
			slog.Float64("final_mass", sol.RawMass[steps]))
	} else {
		span.End()
	}
	return nil
}

func mass(field []float64, cell float64) float64 {
	var s float64
	for _, v := range field {
		s += v
	}
	return s * cell
}

// GaussianDensity builds a product-Gaussian initial density on the grid:
// N(meanH, sdH²) in h times N(meanQ, sdQ²) in q, normalised to unit
// rectangle-rule mass. It is the λ(0) initialisation used throughout the
// paper's evaluation (Section V).
func GaussianDensity(g grid.Grid2D, meanH, sdH, meanQ, sdQ float64) ([]float64, error) {
	if sdH <= 0 || sdQ <= 0 {
		return nil, fmt.Errorf("pde: GaussianDensity: standard deviations must be positive, got %g, %g", sdH, sdQ)
	}
	f := g.NewField()
	for i := 0; i < g.H.N; i++ {
		ph := numerics.NormalPDF(meanH, sdH, g.H.At(i))
		for j := 0; j < g.Q.N; j++ {
			f[g.Idx(i, j)] = ph * numerics.NormalPDF(meanQ, sdQ, g.Q.At(j))
		}
	}
	m := mass(f, g.CellArea())
	if m <= 0 {
		return nil, errors.New("pde: GaussianDensity: density mass vanished on the grid (mean far outside range?)")
	}
	for k := range f {
		f[k] /= m
	}
	return f, nil
}
