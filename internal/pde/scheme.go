package pde

import (
	"fmt"
	"strings"

	"repro/internal/grid"
	"repro/internal/linalg"
)

// Workspace owns every reusable buffer the operator-split integrators need on
// one grid resolution: the shared batched h-line system, the q-drift field of
// the level being swept and the lock-step q-sweep's normalised
// super-diagonals, the line sweepers of the explicit path, and the
// gradient/source scratch fields.
// A Workspace is created once per solver session and reused across time
// steps, best-response iterations and repeated solves, so the steady-state
// iteration loop of the engine performs no heap allocations. A Workspace is
// not safe for concurrent use; parallel solvers hold one each.
type Workspace struct {
	g grid.Grid2D

	batH *linalg.TridiagBatch[float64] // shared-coefficient implicit h-phase
	bH   []float64                     // h-drift cache, len nh
	bQ   []float64                     // q-drift field of the level being swept
	qcp  []float64                     // implicit q-phase: normalised super-diagonals, laid out like bQ
	swH  *sweeper                      // h-line sweeper (explicit path)
	swQ  *sweeper                      // q-line sweeper (explicit path)

	grad []float64 // ∂qV estimate feeding the closed-form control
	work []float64 // explicit-source scratch W = V^{n+1} + dt·U
}

// NewWorkspace validates the grid and allocates all sweep buffers.
func NewWorkspace(g grid.Grid2D) (*Workspace, error) {
	if err := g.H.Validate(); err != nil {
		return nil, fmt.Errorf("pde: workspace H axis: %w", err)
	}
	if err := g.Q.Validate(); err != nil {
		return nil, fmt.Errorf("pde: workspace Q axis: %w", err)
	}
	nh, nq := g.H.N, g.Q.N
	return &Workspace{
		g:    g,
		batH: linalg.NewTridiagBatch[float64](nh),
		bH:   make([]float64, nh),
		bQ:   g.NewField(),
		qcp:  g.NewField(),
		swH:  newSweeper(nh),
		swQ:  newSweeper(nq),
		grad: g.NewField(),
		work: g.NewField(),
	}, nil
}

// Grid returns the grid the workspace was sized for.
func (w *Workspace) Grid() grid.Grid2D { return w.g }

// fits reports whether the workspace matches the given grid resolution.
func (w *Workspace) fits(g grid.Grid2D) bool {
	return w != nil && w.g.H.N == g.H.N && w.g.Q.N == g.Q.N
}

// Scheme selects the time integrator of the operator-split PDE updates. Both
// integrators advance the backward (HJB) value field and the forward (FPK)
// density field through the same Lie splitting against a shared Workspace;
// they differ only in how each phase advances a line.
type Scheme int

const (
	// Implicit (the zero value and default) is the unconditionally stable
	// operator-split backward-Euler integrator: one tridiagonal solve per
	// dimension per step.
	Implicit Scheme = iota
	// Explicit is the forward-Euler integrator kept as an ablation: cheaper
	// per step (no linear solves) but subject to a CFL stability bound,
	// which the solver verifies before stepping and reports via
	// ErrCFLViolation when violated.
	Explicit
)

// schemeNames holds each scheme's name in configs, CLI flags and cache keys.
var schemeNames = [...]string{Implicit: "implicit", Explicit: "explicit"}

// ParseScheme resolves a scheme from its configuration / CLI name. The empty
// name selects Implicit.
func ParseScheme(name string) (Scheme, error) {
	if name == "" {
		return Implicit, nil
	}
	for s, n := range schemeNames {
		if n == name {
			return Scheme(s), nil
		}
	}
	return 0, fmt.Errorf("pde: unknown scheme %q (want one of %s)", name, strings.Join(schemeNames[:], ", "))
}

// String returns the scheme's name in configs, CLI flags and cache keys.
func (s Scheme) String() string {
	if s.Validate() != nil {
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
	return schemeNames[s]
}

// Validate rejects a value that names no scheme.
func (s Scheme) Validate() error {
	if s != Implicit && s != Explicit {
		return fmt.Errorf("pde: unknown scheme %d (want one of %s)", int(s), strings.Join(schemeNames[:], ", "))
	}
	return nil
}

// Order returns the nominal temporal convergence order of the scheme. Both
// integrators are first-order: backward/forward Euler in time, with the Lie
// splitting itself contributing an O(dt) term. The verification layer checks
// the observed order from grid refinement against this value.
func (s Scheme) Order() int { return 1 }

// hPhaseImplicit runs the batched implicit h-phase in place on the field: the
// h-drift depends on (t, h) only, so every column shares one coefficient set,
// which is assembled and factorised once; the interleaved substitution then
// runs directly on the flattened field (unit stride, no gather/scatter).
func (ws *Workspace) hPhaseImplicit(field []float64, op operator, dt, dx, diff float64) error {
	bat := ws.batH
	assemble(op, bat.A, bat.B, bat.C, ws.bH, dt, dx, diff)
	if err := bat.Factorize(); err != nil {
		return err
	}
	return bat.SolveInterleaved(field, ws.g.Q.N)
}

// loadHDrift caches the h-drifts at the current time level, shared by every
// column of the h-phase.
func (ws *Workspace) loadHDrift(t float64, driftH func(t, h float64) float64) {
	for i := range ws.bH {
		ws.bH[i] = driftH(t, ws.g.H.At(i))
	}
}

// stepBackward advances the backward value update one step at time level n
// with the problem's scheme. src holds the explicit source
// W = V^{n+1} + dt·U(t_n, x*, ·) and is consumed as scratch; x is the frozen
// control field; the new value level lands in dst (src and dst must not
// alias). The Lie splitting sweeps every q-column in h first (stride nq, in
// place on src), then every h-row in q (stride 1, src → dst). The implicit
// h-phase is batched (one factorisation for all columns) and the implicit
// q-phase solves all rows in one lock-step sweep; the explicit phases sweep
// one line at a time. SolveHJBInto counts the sweeps once per solve.
func stepBackward(ws *Workspace, p *HJBProblem, n int, x, src, dst []float64) error {
	g := p.Grid
	impl := p.Scheme == Implicit
	nh, nq := g.H.N, g.Q.N
	t, dt := p.Time.At(n), p.Time.Dt()
	ws.loadHDrift(t, p.DriftH)
	if impl {
		if err := ws.hPhaseImplicit(src, opBackwardValue, dt, g.H.Step(), p.DiffH); err != nil {
			return fmt.Errorf("pde: HJB h-sweep at t=%.4g: %w", t, err)
		}
	} else {
		sw := ws.swH
		for j := 0; j < nq; j++ {
			gather(sw.rhs, src, j, nq, nh)
			if err := cflError(sw.explicitBackwardValue(ws.bH, dt, g.H.Step(), p.DiffH), p.Time.Steps); err != nil {
				return fmt.Errorf("pde: HJB h-sweep at t=%.4g, column %d: %w", t, j, err)
			}
			scatter(src, sw.sol, j, nq, nh)
		}
	}

	// The q-rows are built from the level's drift field, which the model
	// evaluates from the frozen control field in one call.
	p.DriftQ(n, x, ws.bQ)
	if impl {
		if err := ws.qSweep("HJB", t, opBackwardValue, dst, src, dt, g.Q.Step(), p.DiffQ); err != nil {
			return err
		}
	} else {
		sw := ws.swQ
		for i := 0; i < nh; i++ {
			row := i * nq
			copy(sw.rhs, src[row:row+nq])
			if err := cflError(sw.explicitBackwardValue(ws.bQ[row:row+nq], dt, g.Q.Step(), p.DiffQ), p.Time.Steps); err != nil {
				return fmt.Errorf("pde: HJB q-sweep at t=%.4g, row %d: %w", t, i, err)
			}
			copy(dst[row:row+nq], sw.sol)
		}
	}
	return nil
}

// stepForward transports the density field forward one step in place from
// time level n with the problem's scheme. SolveFPKInto counts the sweeps
// once per solve.
func stepForward(ws *Workspace, p *FPKProblem, n int, lambda []float64) error {
	g := p.Grid
	impl := p.Scheme == Implicit
	nh, nq := g.H.N, g.Q.N
	t, dt := p.Time.At(n), p.Time.Dt()
	op := opForwardConservative
	if p.Form != Conservative {
		op = opForwardAdvective
	}
	ws.loadHDrift(t, p.DriftH)
	if impl {
		if err := ws.hPhaseImplicit(lambda, op, dt, g.H.Step(), p.DiffH); err != nil {
			return fmt.Errorf("pde: FPK h-sweep at t=%.4g: %w", t, err)
		}
	} else {
		sw := ws.swH
		for j := 0; j < nq; j++ {
			gather(sw.rhs, lambda, j, nq, nh)
			if err := cflError(sw.explicitForwardConservative(ws.bH, dt, g.H.Step(), p.DiffH), p.Time.Steps); err != nil {
				return fmt.Errorf("pde: FPK h-sweep at t=%.4g, column %d: %w", t, j, err)
			}
			scatter(lambda, sw.sol, j, nq, nh)
		}
	}

	p.DriftQ(n, ws.bQ)
	if impl {
		if err := ws.qSweep("FPK", t, op, lambda, lambda, dt, g.Q.Step(), p.DiffQ); err != nil {
			return err
		}
	} else {
		sw := ws.swQ
		for i := 0; i < nh; i++ {
			row := i * nq
			copy(sw.rhs, lambda[row:row+nq])
			if err := cflError(sw.explicitForwardConservative(ws.bQ[row:row+nq], dt, g.Q.Step(), p.DiffQ), p.Time.Steps); err != nil {
				return fmt.Errorf("pde: FPK q-sweep at t=%.4g, row %d: %w", t, i, err)
			}
			copy(lambda[row:row+nq], sw.sol)
		}
	}
	return nil
}
