package resilience

import (
	"context"
	"errors"
	"testing"

	"repro/internal/engine"
	"repro/internal/mec"
	"repro/internal/obs"
	"repro/internal/pde"
)

func smallConfig() (engine.Config, engine.Workload) {
	cfg := engine.DefaultConfig(mec.Default())
	cfg.NH = 7
	cfg.NQ = 21
	cfg.Steps = 30
	return cfg, engine.Workload{Requests: 10, Pop: 0.3, Timeliness: 2}
}

// TestEscalationRecovers starves the first attempt of iterations (the solve
// needs ~8 at the default damping, it gets 6) and checks the ladder's grown
// iteration budget recovers a converged equilibrium, with the recovery
// reported to telemetry.
func TestEscalationRecovers(t *testing.T) {
	reg := obs.NewRegistry(nil)
	cfg, w := smallConfig()
	cfg.MaxIters = 6
	cfg.Obs = reg

	e := Escalation{
		MaxAttempts:    4,
		DampingFactor:  0.99, // keep the damping effectively unchanged
		MinDamping:     0.05,
		GrowIterBudget: true, // 6 → 9 → 13 → ... iterations
		AcceptPartial:  true,
	}
	eq, err := e.Solve(context.Background(), nil, cfg, w, nil)
	if err != nil {
		t.Fatalf("escalated solve failed: %v", err)
	}
	if !eq.Converged {
		t.Fatal("escalated solve returned a non-converged equilibrium without error")
	}
	s := reg.Snapshot()
	if s.Counters["resilience.retries"] < 1 {
		t.Errorf("no retries recorded: %+v", s.Counters)
	}
	if s.Counters["resilience.recovered"] != 1 {
		t.Errorf("resilience.recovered = %g, want 1", s.Counters["resilience.recovered"])
	}
}

// TestEscalationAcceptsBestPartial exhausts a ladder whose attempts all run
// out of iterations and checks the best partial equilibrium comes back wrapped
// in engine.ErrNotConverged (callers distinguish "usable but not converged"
// from hard failure), with the fallback recorded.
func TestEscalationAcceptsBestPartial(t *testing.T) {
	reg := obs.NewRegistry(nil)
	cfg, w := smallConfig()
	cfg.MaxIters = 2
	cfg.Obs = reg

	e := Escalation{
		MaxAttempts:   2,
		DampingFactor: 0.99,
		MinDamping:    0.05,
		AcceptPartial: true, // GrowIterBudget off: retry fails too
	}
	eq, err := e.Solve(context.Background(), nil, cfg, w, nil)
	if !errors.Is(err, engine.ErrNotConverged) {
		t.Fatalf("got %v, want ErrNotConverged", err)
	}
	if eq == nil {
		t.Fatal("AcceptPartial returned no equilibrium")
	}
	if eq.Converged {
		t.Fatal("partial equilibrium claims convergence")
	}
	if got := reg.Snapshot().Counters["resilience.fallbacks"]; got != 1 {
		t.Errorf("resilience.fallbacks = %g, want 1", got)
	}
}

// TestEscalationExhaustedOnDivergence checks a failure mode the ladder cannot
// fix (the blow-up threshold fails every attempt) surfaces as a hard error
// with no equilibrium — divergent attempts never produce a partial.
func TestEscalationExhaustedOnDivergence(t *testing.T) {
	cfg, w := smallConfig()
	cfg.BlowupResidual = 1e-300

	e := DefaultEscalation()
	e.MaxAttempts = 2
	eq, err := e.Solve(context.Background(), nil, cfg, w, nil)
	if !errors.Is(err, engine.ErrDiverged) {
		t.Fatalf("got %v, want ErrDiverged", err)
	}
	if eq != nil {
		t.Fatal("divergent ladder returned an equilibrium")
	}
}

// TestEscalationUnrecoverableError checks non-solver failures (here a
// validation error) pass through without retries.
func TestEscalationUnrecoverableError(t *testing.T) {
	reg := obs.NewRegistry(nil)
	cfg, w := smallConfig()
	cfg.Obs = reg
	w.Requests = -1 // invalid workload: not a solver failure

	_, err := DefaultEscalation().Solve(context.Background(), nil, cfg, w, nil)
	if err == nil {
		t.Fatal("invalid workload accepted")
	}
	if Recoverable(err) {
		t.Fatalf("validation error classified recoverable: %v", err)
	}
	if got := reg.Snapshot().Counters["resilience.retries"]; got != 0 {
		t.Errorf("unrecoverable error triggered %g retries", got)
	}
}

// cflConfig is a grid on which the explicit integrator breaks its CFL bound
// at the default 20 time steps (ratio about 1.1) but not at 40, so rung 2's
// flip to explicit fails and rung 3's doubled time mesh cures it.
func cflConfig() (engine.Config, engine.Workload) {
	cfg, w := smallConfig()
	cfg.NH, cfg.NQ, cfg.Steps = 9, 41, 20
	return cfg, w
}

// TestEscalationSurvivesItsOwnCFLViolation starves every attempt of
// iterations so the ladder walks all its rungs: rung 2's switch to the
// explicit integrator breaks the CFL bound, which must not end the ladder —
// rung 3 refines the time mesh and the best partial still comes back.
func TestEscalationSurvivesItsOwnCFLViolation(t *testing.T) {
	reg := obs.NewRegistry(nil)
	cfg, w := cflConfig()
	cfg.MaxIters = 1
	cfg.Obs = reg

	eq, err := DefaultEscalation().Solve(context.Background(), nil, cfg, w, nil)
	if !errors.Is(err, engine.ErrNotConverged) {
		t.Fatalf("got %v, want the best partial wrapped in ErrNotConverged", err)
	}
	if eq == nil {
		t.Fatal("ladder returned no partial equilibrium")
	}
	if got := reg.Snapshot().Counters["resilience.retries"]; got != 3 {
		t.Errorf("resilience.retries = %g, want 3 (every rung ran)", got)
	}
}

// TestEscalationRecoversExplicitCFLViolation starts from an explicit
// configuration that breaks its CFL bound: the first attempts fail with
// ErrCFLViolation, and rung 2's switch to the implicit integrator recovers.
func TestEscalationRecoversExplicitCFLViolation(t *testing.T) {
	reg := obs.NewRegistry(nil)
	cfg, w := cflConfig()
	cfg.Scheme = "explicit"
	cfg.Obs = reg

	if _, err := engine.Solve(cfg, w); !errors.As(err, new(*pde.ErrCFLViolation)) {
		t.Fatalf("base solve: got %v, want a CFL violation", err)
	}
	eq, err := DefaultEscalation().Solve(context.Background(), nil, cfg, w, nil)
	if err != nil {
		t.Fatalf("escalated solve failed: %v", err)
	}
	if !eq.Converged || eq.Config.Scheme != "implicit" {
		t.Errorf("recovered with converged=%t scheme %q, want a converged implicit solve", eq.Converged, eq.Config.Scheme)
	}
	s := reg.Snapshot()
	if s.Counters["resilience.retries"] != 2 || s.Counters["resilience.recovered"] != 1 {
		t.Errorf("retries %g, recovered %g, want 2 and 1", s.Counters["resilience.retries"], s.Counters["resilience.recovered"])
	}
}

// TestEscalationCancellation checks a cancelled context stops the ladder
// between attempts.
func TestEscalationCancellation(t *testing.T) {
	cfg, w := smallConfig()
	cfg.MaxIters = 2
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := DefaultEscalation().Solve(ctx, nil, cfg, w, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// TestEscalateLadderShape pins the rung semantics: damping shrinks from the
// first retry, the scheme flips from the second, the time mesh refines (under
// its cap) from the third, and the warm start is always dropped.
func TestEscalateLadderShape(t *testing.T) {
	base, w := smallConfig()
	base.Scheme = "implicit"
	eqWarm, err := engine.Solve(base, w)
	if err != nil {
		t.Fatalf("warm-up solve: %v", err)
	}
	base.WarmStart = eqWarm

	e := DefaultEscalation()
	e.MaxSteps = base.Steps * 2

	a1 := e.escalate(base, 1)
	if a1.Damping >= base.Damping || a1.Scheme != "implicit" || a1.Steps != base.Steps {
		t.Fatalf("attempt 1: damping %g scheme %q steps %d", a1.Damping, a1.Scheme, a1.Steps)
	}
	if a1.WarmStart != nil {
		t.Fatal("retry kept the warm start")
	}
	a2 := e.escalate(base, 2)
	if a2.Scheme != "explicit" {
		t.Fatalf("attempt 2 scheme %q, want explicit", a2.Scheme)
	}
	a3 := e.escalate(base, 3)
	if a3.Steps != base.Steps*2 {
		t.Fatalf("attempt 3 steps %d, want %d", a3.Steps, base.Steps*2)
	}
	a4 := e.escalate(base, 4)
	if a4.Steps != e.MaxSteps {
		t.Fatalf("attempt 4 steps %d, want cap %d", a4.Steps, e.MaxSteps)
	}
	if a4.Damping < e.MinDamping {
		t.Fatalf("attempt 4 damping %g below floor %g", a4.Damping, e.MinDamping)
	}
}

// TestValidate covers the ladder parameter checks.
func TestValidate(t *testing.T) {
	if err := DefaultEscalation().Validate(); err != nil {
		t.Fatalf("default ladder invalid: %v", err)
	}
	bad := []Escalation{
		{MaxAttempts: 0, DampingFactor: 0.5},
		{MaxAttempts: 2, DampingFactor: 0},
		{MaxAttempts: 2, DampingFactor: 1},
		{MaxAttempts: 2, DampingFactor: 0.5, MinDamping: -0.1},
		{MaxAttempts: 2, DampingFactor: 0.5, RefineSteps: true, MaxSteps: 1},
	}
	for i, e := range bad {
		if err := e.Validate(); err == nil {
			t.Errorf("case %d accepted: %+v", i, e)
		}
	}
}

// TestEscalationReturnsBestPartial pins AcceptPartial's selection rule
// differentially: the equilibrium handed back after an exhausted ladder must
// be the attempt with the smallest final residual — not merely the last one.
// Each attempt is reproduced independently (the ladder's retries are cold
// deterministic solves), so the expected winner is computed outright.
func TestEscalationReturnsBestPartial(t *testing.T) {
	tests := []struct {
		name string
		e    Escalation
	}{
		// The iteration budget grows per retry, so later attempts get closer:
		// the best partial is the last attempt.
		{"grown-iteration-budget", Escalation{
			MaxAttempts: 3, DampingFactor: 0.99, MinDamping: 0.05,
			GrowIterBudget: true, AcceptPartial: true}},
		// The damping walk shrinks γ aggressively with a fixed budget, so
		// later attempts take smaller strides and end farther away: the best
		// partial is an early attempt, which the ladder must have kept.
		{"damping-walk", Escalation{
			MaxAttempts: 3, DampingFactor: 0.3, MinDamping: 0.05,
			AcceptPartial: true}},
		{"scheme-switch", Escalation{
			MaxAttempts: 3, DampingFactor: 0.9, MinDamping: 0.05,
			SwitchScheme: true, AcceptPartial: true}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg, w := smallConfig()
			cfg.MaxIters = 3
			cfg.Tol = 1e-18 // unattainable: every attempt exhausts its budget

			eq, err := tt.e.Solve(context.Background(), nil, cfg, w, nil)
			if !errors.Is(err, engine.ErrNotConverged) {
				t.Fatalf("got %v, want ErrNotConverged", err)
			}
			if eq == nil || len(eq.Residuals) == 0 {
				t.Fatal("exhausted ladder returned no partial equilibrium")
			}

			best := -1.0
			for attempt := 0; attempt < tt.e.MaxAttempts; attempt++ {
				acfg := cfg
				if attempt > 0 {
					acfg = tt.e.escalate(cfg, attempt)
				}
				aeq, aerr := engine.Solve(acfg, w)
				if !errors.Is(aerr, engine.ErrNotConverged) || aeq == nil {
					t.Fatalf("attempt %d replay: %v", attempt, aerr)
				}
				if r := aeq.Residuals[len(aeq.Residuals)-1]; best < 0 || r < best {
					best = r
				}
			}
			if got := eq.Residuals[len(eq.Residuals)-1]; got != best {
				t.Errorf("ladder kept final residual %g, best across attempts is %g", got, best)
			}
		})
	}
}
