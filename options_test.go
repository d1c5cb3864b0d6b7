package mfgcp

import (
	"context"
	"errors"
	"strings"
	"testing"
)

// TestNewSolverConfigOptions checks the functional-option constructor:
// defaults preserved, options applied in order, invalid combinations rejected
// at construction.
func TestNewSolverConfigOptions(t *testing.T) {
	p := DefaultParams()
	rec := NewRecorder(nil)
	cfg, err := NewSolverConfig(p,
		WithScheme("explicit"),
		WithGrid(9, 41, 60),
		WithIteration(25, 5e-3),
		WithSharing(false),
		WithSurrogate("table.mfgt", 0.05),
		WithRecorder(rec),
	)
	if err != nil {
		t.Fatalf("NewSolverConfig: %v", err)
	}
	if cfg.Scheme != "explicit" || cfg.NH != 9 || cfg.NQ != 41 || cfg.Steps != 60 ||
		cfg.MaxIters != 25 || cfg.Tol != 5e-3 || cfg.ShareEnabled || cfg.Obs != Recorder(rec) {
		t.Errorf("options not applied: %+v", cfg)
	}
	if cfg.Surrogate != (SurrogateConfig{Path: "table.mfgt", MaxErrorBound: 0.05}) {
		t.Errorf("surrogate option not applied: %+v", cfg.Surrogate)
	}
	def := DefaultSolverConfig(p)
	if cfg.Damping != def.Damping || cfg.Params != p {
		t.Errorf("defaults not preserved: %+v", cfg)
	}

	if _, err := NewSolverConfig(p, WithScheme("upwind")); err == nil {
		t.Error("invalid scheme accepted")
	}
	if _, err := NewSolverConfig(p, WithGrid(1, 1, 1)); err == nil {
		t.Error("degenerate grid accepted")
	}
}

// TestNewMarketConfigOptions checks the market constructor, including the
// dual-purpose options shared with the solver side.
func TestNewMarketConfigOptions(t *testing.T) {
	p := DefaultParams()
	ladder := DefaultRecoveryEscalation()
	plan := FaultPlan{Seed: 3, EDPChurn: 0.1}
	cfg, err := NewMarketConfig(p, NewMFGCPPolicy(),
		WithEpochs(5),
		WithStepsPerEpoch(17),
		WithSeed(11),
		WithEqCache(32),
		WithScheme("explicit"),
		WithGrid(7, 21, 30),
		WithSurrogate("table.mfgt", 0),
		WithEscalation(ladder),
		WithFaultPlan(plan),
		WithCheckpoint(MarketCheckpointConfig{Dir: t.TempDir(), Every: 2}),
		WithRequesters(RequesterConfig{J: 40, Speed: 5, RequestsPerRequester: 2}),
		WithExactInterference(true),
	)
	if err != nil {
		t.Fatalf("NewMarketConfig: %v", err)
	}
	if cfg.Epochs != 5 || cfg.StepsPerEpoch != 17 || cfg.Seed != 11 || cfg.EqCacheSize != 32 {
		t.Errorf("market options not applied: %+v", cfg)
	}
	if cfg.Solver.Scheme != "explicit" || cfg.Solver.NH != 7 || cfg.Solver.NQ != 21 {
		t.Errorf("dual options did not reach the nested solver: %+v", cfg.Solver)
	}
	if cfg.Solver.Surrogate.Path != "table.mfgt" {
		t.Errorf("surrogate option did not reach the nested solver: %+v", cfg.Solver.Surrogate)
	}
	if cfg.Recovery == nil || *cfg.Recovery != ladder {
		t.Errorf("escalation not installed: %+v", cfg.Recovery)
	}
	if cfg.Faults == nil || *cfg.Faults != plan {
		t.Errorf("fault plan not installed: %+v", cfg.Faults)
	}
	if cfg.Requesters.J != 40 || !cfg.ExactInterference {
		t.Errorf("requester options not applied: %+v", cfg)
	}

	if _, err := NewMarketConfig(p, NewRRPolicy(), WithEpochs(0)); err == nil {
		t.Error("zero epochs accepted")
	}
	if _, err := NewMarketConfig(p, nil); err == nil {
		t.Error("nil policy accepted")
	}
}

// TestSolveEquilibriumContext checks the context-first solve: a cancelled
// context aborts promptly with the context error, and the background wrapper
// still solves.
func TestSolveEquilibriumContext(t *testing.T) {
	p := DefaultParams()
	cfg, err := NewSolverConfig(p, WithGrid(5, 11, 12))
	if err != nil {
		t.Fatal(err)
	}
	w := Workload{Requests: 10, Pop: 0.3, Timeliness: 2}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SolveEquilibriumContext(ctx, cfg, w); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled solve: got %v, want context.Canceled", err)
	}

	eq, err := SolveEquilibrium(cfg, w)
	if err != nil {
		t.Fatalf("SolveEquilibrium: %v", err)
	}
	if !eq.Converged {
		t.Errorf("default solve did not converge: %d iterations", eq.Iterations)
	}
}

// TestWithMarketContext checks that a context installed with
// WithMarketContext bounds a market run as RunMarketContext's own argument
// does: the run stops when either ends, with the cause of the one that did.
func TestWithMarketContext(t *testing.T) {
	p := DefaultParams()
	p.M, p.K = 10, 3
	market := func(ctx context.Context) MarketConfig {
		t.Helper()
		cfg, err := NewMarketConfig(p, NewRRPolicy(), WithEpochs(2), WithStepsPerEpoch(10), WithMarketContext(ctx))
		if err != nil {
			t.Fatal(err)
		}
		return cfg
	}

	stopped := errors.New("operator stop")
	ended, end := context.WithCancelCause(context.Background())
	end(stopped)
	res, err := RunMarketContext(context.Background(), market(ended))
	if !errors.Is(err, ErrMarketInterrupted) || !errors.Is(err, stopped) {
		t.Errorf("run under an ended WithMarketContext: err = %v, want ErrMarketInterrupted wrapping %v", err, stopped)
	}
	if res == nil {
		t.Error("run under an ended WithMarketContext returned no partial result")
	} else if n := len(res.Stats); n != 0 {
		t.Errorf("run under an ended WithMarketContext traded %d epochs, want 0", n)
	}

	// The argument still bounds a run whose configured context is live.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunMarketContext(cancelled, market(context.Background())); !errors.Is(err, ErrMarketInterrupted) || !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled argument with a live WithMarketContext: err = %v, want ErrMarketInterrupted wrapping context.Canceled", err)
	}

	// Neither ends: the run completes.
	if res, err := RunMarketContext(context.Background(), market(context.Background())); err != nil || len(res.Stats) != 2 {
		t.Errorf("live contexts: err = %v, want a complete 2-epoch run", err)
	}
}

// TestRunExperimentContext checks that the context argument reaches the
// experiment and that an explicit opt.Context wins.
func TestRunExperimentContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opt := ExperimentOptions{Seed: 1, Quick: true}
	if _, err := RunExperimentContext(ctx, "table2", opt); err == nil {
		t.Error("cancelled experiment context not honoured")
	} else if !errors.Is(err, context.Canceled) && !strings.Contains(err.Error(), "interrupt") {
		t.Errorf("cancelled experiment: unexpected error %v", err)
	}
}

// TestPolicyByName locks the public name→policy mapping.
func TestPolicyByName(t *testing.T) {
	for name, want := range map[string]string{
		"mfg-cp": "MFG-CP", "MFG": "MFG", "rr": "RR", "mpc": "MPC", "udcs": "UDCS",
	} {
		pol, err := PolicyByName(name)
		if err != nil {
			t.Errorf("PolicyByName(%q): %v", name, err)
			continue
		}
		if pol.Name() != want {
			t.Errorf("PolicyByName(%q).Name() = %q, want %q", name, pol.Name(), want)
		}
	}
	if _, err := PolicyByName("lfu"); err == nil {
		t.Error("unknown policy accepted")
	}
}
