// Package resilience hardens the long-running paths of the MFG-CP pipeline
// against solver stress. Its centrepiece is the Escalation ladder: when one
// equilibrium solve (Algorithm 2) diverges into non-finite iterates or
// exhausts its iteration budget, the ladder retries the solve under
// progressively more conservative configurations —
//
//	rung 1: increase damping (shrink the relaxation factor γ),
//	rung 2: switch the PDE time integrator (implicit ↔ explicit),
//	rung 3: refine the time mesh (double Steps up to a cap),
//
// — recording every recovery step to the run's telemetry ("resilience.*"
// metric names). The market simulator builds on the same vocabulary for its
// epoch-level degradation (sim.FaultPlan) and checkpoint/resume support.
package resilience

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/pde"
)

// Escalation is the bounded recovery ladder applied when an equilibrium solve
// fails. The zero value is NOT usable; start from DefaultEscalation.
type Escalation struct {
	// MaxAttempts is the total number of solve attempts including the first
	// (so MaxAttempts−1 retries). Must be ≥ 1.
	MaxAttempts int
	// DampingFactor multiplies the relaxation factor γ on every retry,
	// making the damped update more conservative. Must lie in (0, 1).
	DampingFactor float64
	// MinDamping floors the escalated γ.
	MinDamping float64
	// SwitchScheme flips the PDE time integrator (implicit ↔ explicit) from
	// the second retry onward.
	SwitchScheme bool
	// RefineSteps doubles the time-mesh resolution from the third retry
	// onward, up to MaxSteps (finer time steps stabilise both the CFL-bounded
	// explicit integrator and stiff drift terms).
	RefineSteps bool
	// MaxSteps caps the refined Steps count.
	MaxSteps int
	// GrowIterBudget scales MaxIters by 1.5× per retry: deeper damping
	// converges in smaller strides, so the escalated attempts get a larger
	// iteration budget.
	GrowIterBudget bool
	// AcceptPartial returns the best non-converged equilibrium (smallest
	// final residual across attempts, when one exists) wrapped with
	// engine.ErrNotConverged after the ladder is exhausted, instead of only
	// the last error. Divergent attempts never produce a partial.
	AcceptPartial bool
}

// DefaultEscalation returns the ladder used by the market simulator: four
// attempts walking damping → scheme switch → time-mesh refinement, with the
// iteration budget growing alongside and partial equilibria accepted at the
// end.
func DefaultEscalation() Escalation {
	return Escalation{
		MaxAttempts:    4,
		DampingFactor:  0.5,
		MinDamping:     0.05,
		SwitchScheme:   true,
		RefineSteps:    true,
		MaxSteps:       1024,
		GrowIterBudget: true,
		AcceptPartial:  true,
	}
}

// Validate checks the ladder parameters.
func (e Escalation) Validate() error {
	if e.MaxAttempts < 1 {
		return fmt.Errorf("resilience: MaxAttempts must be ≥ 1, got %d", e.MaxAttempts)
	}
	if math.IsNaN(e.DampingFactor) || !(e.DampingFactor > 0 && e.DampingFactor < 1) {
		return fmt.Errorf("resilience: DampingFactor must lie in (0,1), got %g", e.DampingFactor)
	}
	if math.IsNaN(e.MinDamping) || e.MinDamping < 0 || e.MinDamping > 1 {
		return fmt.Errorf("resilience: MinDamping must lie in [0,1], got %g", e.MinDamping)
	}
	if e.RefineSteps && e.MaxSteps < 2 {
		return fmt.Errorf("resilience: MaxSteps must be ≥ 2 when RefineSteps is set, got %d", e.MaxSteps)
	}
	return nil
}

// Recoverable reports whether err is a solver failure the escalation ladder
// can act on: divergence, non-convergence, or an explicit integrator that
// breaks its CFL bound (which rung 2's flip to explicit can cause, and which
// rung 3's finer time mesh or a flip back to implicit cures). Validation
// errors, cancellation and I/O failures are not recoverable by re-solving.
func Recoverable(err error) bool {
	var cfl *pde.ErrCFLViolation
	return errors.Is(err, engine.ErrDiverged) || errors.Is(err, engine.ErrNotConverged) ||
		errors.As(err, &cfl)
}

// escalate derives the configuration of retry attempt n ≥ 1 from the base
// configuration, walking the ladder rungs cumulatively.
func (e Escalation) escalate(base engine.Config, attempt int) engine.Config {
	cfg := base
	cfg.WarmStart = nil // a bad warm start may be the failure cause: retry cold
	for i := 0; i < attempt; i++ {
		cfg.Damping *= e.DampingFactor
	}
	if cfg.Damping < e.MinDamping {
		cfg.Damping = e.MinDamping
	}
	if e.SwitchScheme && attempt >= 2 {
		cfg.Scheme = flipScheme(base)
	}
	if e.RefineSteps && attempt >= 3 {
		steps := cfg.Steps * 2
		if steps > e.MaxSteps {
			steps = e.MaxSteps
		}
		if steps > cfg.Steps {
			cfg.Steps = steps
		}
	}
	if e.GrowIterBudget {
		grown := float64(cfg.MaxIters)
		for i := 0; i < attempt; i++ {
			grown *= 1.5
		}
		cfg.MaxIters = int(grown)
	}
	return cfg
}

// flipScheme returns the name of the integrator the base configuration does
// NOT use.
func flipScheme(base engine.Config) string {
	if sch, err := pde.ParseScheme(base.Scheme); err == nil && sch == pde.Explicit {
		return pde.Implicit.String()
	}
	return pde.Explicit.String()
}

// Solve runs one equilibrium solve under the escalation ladder. The first
// attempt reuses the caller's session (preserving the zero-allocation steady
// state of the healthy path); every retry builds a throwaway session for its
// escalated configuration, which is acceptable because recovery is the cold
// path. A nil session makes the first attempt throwaway too.
//
// Telemetry (cfg.Obs): "resilience.retries" counts escalated attempts,
// "resilience.recovered" successful recoveries, "resilience.fallbacks"
// partial equilibria accepted after the ladder was exhausted (the engine
// itself counts "resilience.nonfinite" divergences).
func (e Escalation) Solve(ctx context.Context, s *engine.Session, cfg engine.Config, w engine.Workload, warm *engine.Equilibrium) (*engine.Equilibrium, error) {
	if err := e.Validate(); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	rec := obs.OrNop(cfg.Obs)
	// Request-scoped correlation: a traced request (the serving tier) gets
	// its escalation attempts attributed in the access log, and the retry
	// events below carry its ID.
	tr := obs.ReqTraceFrom(ctx)

	var firstErr error
	var bestPartial *engine.Equilibrium
	notePartial := func(eq *engine.Equilibrium, err error) {
		if eq == nil || !errors.Is(err, engine.ErrNotConverged) || len(eq.Residuals) == 0 {
			return
		}
		if bestPartial == nil ||
			eq.Residuals[len(eq.Residuals)-1] < bestPartial.Residuals[len(bestPartial.Residuals)-1] {
			bestPartial = eq
		}
	}

	// Attempt 0: the configuration as given, on the caller's session.
	sess := s
	if sess == nil {
		var err error
		if sess, err = engine.NewSession(cfg); err != nil {
			return nil, err
		}
	}
	eq, err := sess.SolveContext(ctx, w, warm)
	if err == nil {
		return eq, nil
	}
	if !Recoverable(err) {
		return eq, err
	}
	firstErr = err
	notePartial(eq, err)

	for attempt := 1; attempt < e.MaxAttempts; attempt++ {
		if cerr := ctx.Err(); cerr != nil {
			return nil, fmt.Errorf("resilience: recovery canceled after attempt %d: %w", attempt, cerr)
		}
		esc := e.escalate(cfg, attempt)
		rec.Add("resilience.retries", 1)
		tr.Count("resilience_retries", 1)
		if rec.Enabled() {
			rec.Event("resilience.retry",
				slog.Int("attempt", attempt),
				slog.Float64("damping", esc.Damping),
				slog.String("scheme", esc.Scheme),
				slog.Int("steps", esc.Steps),
				slog.String("request_id", obs.RequestIDFrom(ctx)),
				slog.String("cause", err.Error()))
		}
		retrySess, serr := engine.NewSession(esc)
		if serr != nil {
			return nil, fmt.Errorf("resilience: attempt %d session: %w", attempt, serr)
		}
		eq, err = retrySess.SolveContext(ctx, w, nil)
		if err == nil {
			rec.Add("resilience.recovered", 1)
			return eq, nil
		}
		if !Recoverable(err) {
			return eq, err
		}
		notePartial(eq, err)
	}

	if e.AcceptPartial && bestPartial != nil {
		rec.Add("resilience.fallbacks", 1)
		return bestPartial, fmt.Errorf("resilience: ladder exhausted after %d attempts, using best partial: %w",
			e.MaxAttempts, engine.ErrNotConverged)
	}
	return nil, fmt.Errorf("resilience: ladder exhausted after %d attempts (first failure: %v): %w",
		e.MaxAttempts, firstErr, err)
}
