package pde

import (
	"errors"
	"fmt"
	"log/slog"

	"repro/internal/grid"
	"repro/internal/numerics"
	"repro/internal/obs"
)

// HJBProblem specifies the backward HJB equation (Eq. 20)
//
//	∂tV + b_h(t,h)·∂hV + b_q(t,x*,h,q)·∂qV + D_h·∂hhV + D_q·∂qqV
//	   + U(t, x*, h, q) = 0,   V(T, ·) = Terminal(·)
//
// where the control x* is eliminated through its closed-form maximiser
// (Theorem 1) evaluated from the current ∂qV estimate. All time-dependent
// model data (price, mean peer cache, workload) is supplied through the
// callbacks, which the MFG layer closes over the mean-field estimator.
//
// Control, Running and DriftQ each evaluate one whole time level per call:
// every slice is a field of level n, flattened like grid.Grid2D (value
// (i, j) at i·Q.N + j), so a callback hoists whatever is constant along the
// level and indexes tables laid out on the mesh directly.
type HJBProblem struct {
	Grid grid.Grid2D
	Time grid.TimeMesh

	// DiffH and DiffQ are the diffusion coefficients ½ϱh² and ½ϱq².
	DiffH, DiffQ float64

	// DriftH is the channel drift ½ςh(υh−h); it does not depend on control.
	DriftH func(t, h float64) float64
	// Control writes into x the closed-form optimal caching rate of
	// Eq. (21) at level n, given the estimate dVdq of ∂qV from level n+1.
	// The solver clamps x to [0, 1].
	Control func(n int, dVdq, x []float64)
	// Running writes into u the instantaneous utility U(t_n, x, h, q) under
	// the current mean field, given the clamped control field x of level n.
	Running func(n int, x, u []float64)
	// DriftQ writes into b the remaining-space drift Qk[−w1x − w2Π + w3ξ^L]
	// under the frozen control field x of level n.
	DriftQ func(n int, x, b []float64)
	// Terminal is the scrap value V(T, h, q); the paper uses zero.
	Terminal func(h, q float64) float64

	// Scheme selects implicit (default, unconditionally stable) or
	// explicit (CFL-bounded, ablation) time integration.
	Scheme Scheme

	// Obs receives solve/sweep telemetry ("pde.hjb.*" names); nil means
	// no-op. The MFG layer threads engine.Config.Obs through here.
	Obs obs.Recorder
}

// Validate checks that the problem is completely specified.
func (p *HJBProblem) Validate() error {
	if p.DriftH == nil || p.DriftQ == nil || p.Control == nil || p.Running == nil {
		return errors.New("pde: HJBProblem: DriftH, DriftQ, Control and Running are all required")
	}
	if p.DiffH < 0 || p.DiffQ < 0 {
		return fmt.Errorf("pde: HJBProblem: diffusion coefficients must be non-negative, got %g, %g", p.DiffH, p.DiffQ)
	}
	if err := p.Grid.H.Validate(); err != nil {
		return err
	}
	if err := p.Grid.Q.Validate(); err != nil {
		return err
	}
	if p.Time.Steps < 1 {
		return fmt.Errorf("pde: HJBProblem: time mesh needs ≥1 step, got %d", p.Time.Steps)
	}
	return p.Scheme.Validate()
}

// HJBSolution stores the value function and optimal control on every time
// node: V[n] and X[n] are flattened fields at t_n = n·dt. X[Steps] equals
// X[Steps-1] (the control on the final interval).
type HJBSolution struct {
	Grid grid.Grid2D
	Time grid.TimeMesh
	V    [][]float64
	X    [][]float64
}

// ValueAt bilinearly interpolates V at (t, h, q).
func (s *HJBSolution) ValueAt(t, h, q float64) (float64, error) {
	n := s.timeIndex(t)
	return numerics.InterpBilinear(s.Grid, s.V[n], h, q)
}

// ControlAt bilinearly interpolates the optimal caching rate at (t, h, q),
// clamped to [0, 1].
func (s *HJBSolution) ControlAt(t, h, q float64) (float64, error) {
	n := s.timeIndex(t)
	x, err := numerics.InterpBilinear(s.Grid, s.X[n], h, q)
	if err != nil {
		return 0, err
	}
	return numerics.Clamp01(x), nil
}

func (s *HJBSolution) timeIndex(t float64) int {
	dt := s.Time.Dt()
	n := int(t/dt + 0.5)
	if n < 0 {
		n = 0
	}
	if n > s.Time.Steps {
		n = s.Time.Steps
	}
	return n
}

// NewHJBSolution preallocates a solution holder (every time level of V and X
// gets its own field) so repeated solves on the same mesh can reuse it via
// SolveHJBInto without allocating.
func NewHJBSolution(g grid.Grid2D, tm grid.TimeMesh) *HJBSolution {
	sol := &HJBSolution{
		Grid: g,
		Time: tm,
		V:    make([][]float64, tm.Steps+1),
		X:    make([][]float64, tm.Steps+1),
	}
	for n := range sol.V {
		sol.V[n] = g.NewField()
		sol.X[n] = g.NewField()
	}
	return sol
}

// sized reports whether the solution holder matches the problem's grid and
// time mesh.
func (s *HJBSolution) sized(g grid.Grid2D, tm grid.TimeMesh) bool {
	return s != nil && s.Grid == g && s.Time.Steps == tm.Steps &&
		len(s.V) == tm.Steps+1 && len(s.X) == tm.Steps+1
}

// SolveHJB integrates the HJB equation backward from t = T to t = 0 with Lie
// operator splitting: at each step the control is frozen at its closed-form
// maximiser computed from ∂qV of the later time level, the running utility is
// added explicitly, and the advection–diffusion operators in h and q are
// applied per the scheme selected by p.Scheme (implicitly by default: one
// tridiagonal solve per grid line each, unconditionally stable and monotone).
func SolveHJB(p *HJBProblem) (*HJBSolution, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	ws, err := NewWorkspace(p.Grid)
	if err != nil {
		return nil, err
	}
	sol := NewHJBSolution(p.Grid, p.Time)
	if err := SolveHJBInto(ws, p, sol); err != nil {
		return nil, err
	}
	return sol, nil
}

// SolveHJBInto is the allocation-free core of SolveHJB: it integrates the
// problem backward through the time mesh with the problem's scheme, reusing
// the workspace buffers and writing every time level into the preallocated
// solution. Steady-state callers (the engine session) construct workspace and
// solution once and call this per best-response iteration with zero heap
// allocations.
func SolveHJBInto(ws *Workspace, p *HJBProblem, sol *HJBSolution) error {
	if err := p.Validate(); err != nil {
		return err
	}
	g := p.Grid
	if !ws.fits(g) {
		return fmt.Errorf("pde: SolveHJBInto: workspace sized for %dx%d, problem grid is %dx%d",
			ws.g.H.N, ws.g.Q.N, g.H.N, g.Q.N)
	}
	if !sol.sized(g, p.Time) {
		return errors.New("pde: SolveHJBInto: solution holder does not match the problem mesh (use NewHJBSolution)")
	}
	nh, nq := g.H.N, g.Q.N
	steps := p.Time.Steps
	dt := p.Time.Dt()

	rec := obs.OrNop(p.Obs)
	span := rec.Start("pde.hjb.solve")

	// Terminal condition (the holder is reused, so always overwrite).
	vT := sol.V[steps]
	for i := 0; i < nh; i++ {
		for j := 0; j < nq; j++ {
			if p.Terminal != nil {
				vT[g.Idx(i, j)] = p.Terminal(g.H.At(i), g.Q.At(j))
			} else {
				vT[g.Idx(i, j)] = 0
			}
		}
	}

	for n := steps - 1; n >= 0; n-- {
		vNext := sol.V[n+1]

		// 1. Closed-form control from ∂qV at the later time level, and
		// 2. the explicit source W = V^{n+1} + dt·U(t, x*, ·).
		if err := numerics.GradientQ(g, ws.grad, vNext); err != nil {
			return err
		}
		x := sol.X[n]
		p.Control(n, ws.grad, x)
		for k, v := range x {
			x[k] = numerics.Clamp01(v)
		}
		w := ws.work
		p.Running(n, x, w)
		for k, u := range w {
			w[k] = vNext[k] + dt*u
		}

		// 3–4. Scheme-split sweeps in h (in place on work) then q (into V[n]).
		if err := stepBackward(ws, p, n, x, w, sol.V[n]); err != nil {
			return err
		}
	}
	copy(sol.X[steps], sol.X[steps-1])
	rec.Add("pde.hjb.solves", 1)
	rec.Add("pde.hjb.steps", float64(steps))
	if rec.Enabled() {
		span.End(slog.Int("steps", steps), slog.Int("nh", nh), slog.Int("nq", nq))
	} else {
		span.End()
	}
	return nil
}
