package sim

import (
	"errors"
	"testing"

	"repro/internal/obs"
	"repro/internal/policy"
)

var errInjectedPrepare = errors.New("injected prepare failure")

// flakyPolicy delegates to its embedded policy but fails Prepare on the
// scheduled epochs, giving tests deterministic control over which strategy
// determinations fail (FaultPlan.SolverFail only offers a probability).
type flakyPolicy struct {
	policy.Policy
	failOn map[int]bool
}

func (f *flakyPolicy) Prepare(ctx *policy.EpochContext) error {
	if f.failOn[ctx.Epoch] {
		return errInjectedPrepare
	}
	return f.Policy.Prepare(ctx)
}

// starvedMFGCP is a strict MFG-CP whose own solves fail on the scheduled
// epochs: it caps their best-response iterations at 1, so Prepare fails with
// ErrNotConverged from inside the policy. It embeds *policy.MFGCP, so unlike
// flakyPolicy it keeps Freeze and the overlapped epoch path.
type starvedMFGCP struct {
	*policy.MFGCP
	starveOn map[int]bool
}

func (s *starvedMFGCP) Prepare(ctx *policy.EpochContext) error {
	if s.starveOn[ctx.Epoch] {
		starved := *ctx
		starved.Solver.MaxIters = 1
		ctx = &starved
	}
	return s.MFGCP.Prepare(ctx)
}

// strictMFGCP is MFG-CP failing the epoch on any non-converged solve.
func strictMFGCP() *policy.MFGCP {
	p := policy.NewMFGCP()
	p.TolerateNonConvergence = false
	return p
}

// prepareOnce prepares its embedded policy at most once and then freezes —
// the reference behaviour for "keep serving the last-good strategy".
type prepareOnce struct {
	policy.Policy
	done bool
}

func (p *prepareOnce) Prepare(ctx *policy.EpochContext) error {
	if p.done {
		return nil
	}
	if err := p.Policy.Prepare(ctx); err != nil {
		return err
	}
	p.done = true
	return nil
}

// assertSameDynamics compares everything but the policy identity: the market
// dynamics (ledgers, epoch stats, final states) must match bit-for-bit.
func assertSameDynamics(t *testing.T, want, got *Result) {
	t.Helper()
	if got.M != want.M || got.Epochs != want.Epochs {
		t.Fatalf("metadata differs: %d/%d vs %d/%d", got.M, got.Epochs, want.M, want.Epochs)
	}
	if len(got.Ledgers) != len(want.Ledgers) {
		t.Fatalf("ledger count %d vs %d", len(got.Ledgers), len(want.Ledgers))
	}
	for i := range want.Ledgers {
		if got.Ledgers[i] != want.Ledgers[i] {
			t.Fatalf("ledger %d differs:\n got %+v\nwant %+v", i, got.Ledgers[i], want.Ledgers[i])
		}
	}
	for e := range want.Stats {
		a, b := got.Stats[e], want.Stats[e]
		a.StrategyTime, b.StrategyTime = 0, 0
		if a != b {
			t.Fatalf("epoch %d stats differ:\n got %+v\nwant %+v", e, a, b)
		}
	}
	for i := range want.FinalQ {
		for k := range want.FinalQ[i] {
			if got.FinalQ[i][k] != want.FinalQ[i][k] {
				t.Fatalf("FinalQ[%d][%d]: %g vs %g", i, k, got.FinalQ[i][k], want.FinalQ[i][k])
			}
		}
		if got.FinalH[i] != want.FinalH[i] {
			t.Fatalf("FinalH[%d]: %g vs %g", i, got.FinalH[i], want.FinalH[i])
		}
	}
}

// TestForcedFailureFallbacks pins the two degradation contracts of a failed
// strategy determination under a fault plan, differentially: with no strategy
// ever prepared the run must behave exactly like the RR baseline, and with an
// earlier epoch prepared it must keep serving that last-good strategy (not
// the fallback), also when the failure comes from the policy's own solves.
// Each case's expected dynamics come from an independent fault-free run that
// realises the contract directly.
func TestForcedFailureFallbacks(t *testing.T) {
	const epochs = 3
	tests := []struct {
		name        string
		failOn      map[int]bool
		starveOn    map[int]bool // fail a strict MFG-CP's own solves instead
		wantErrors  float64      // sim.fault.solver_errors
		wantDegrade float64      // sim.fault.degraded_epochs
		reference   func(t *testing.T) *Result
	}{
		{
			name:        "never-prepared-degrades-to-rr",
			failOn:      map[int]bool{0: true, 1: true, 2: true},
			wantErrors:  3,
			wantDegrade: 3,
			reference: func(t *testing.T) *Result {
				cfg := quickConfig(t, policy.NewRR())
				cfg.Epochs = epochs
				res, err := Run(cfg)
				if err != nil {
					t.Fatalf("reference RR run: %v", err)
				}
				return res
			},
		},
		{
			name:        "later-failures-reuse-last-good",
			failOn:      map[int]bool{1: true, 2: true},
			wantErrors:  2,
			wantDegrade: 2,
			reference: func(t *testing.T) *Result {
				cfg := quickConfig(t, &prepareOnce{Policy: policy.NewMFGCP()})
				cfg.Epochs = epochs
				res, err := Run(cfg)
				if err != nil {
					t.Fatalf("reference last-good run: %v", err)
				}
				return res
			},
		},
		{
			name:        "own-solver-failures-reuse-last-good",
			starveOn:    map[int]bool{1: true, 2: true},
			wantErrors:  2,
			wantDegrade: 2,
			reference: func(t *testing.T) *Result {
				cfg := quickConfig(t, &prepareOnce{Policy: strictMFGCP()})
				cfg.Epochs = epochs
				res, err := Run(cfg)
				if err != nil {
					t.Fatalf("reference last-good run: %v", err)
				}
				return res
			},
		},
		{
			name:        "recovers-after-initial-fallback",
			failOn:      map[int]bool{0: true},
			wantErrors:  1,
			wantDegrade: 1,
			reference:   nil, // epoch 0 on RR, 1–2 on fresh MFG-CP: counters only
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			reg := obs.NewRegistry(nil)
			var pol policy.Policy = &flakyPolicy{Policy: policy.NewMFGCP(), failOn: tt.failOn}
			if tt.starveOn != nil {
				pol = &starvedMFGCP{MFGCP: strictMFGCP(), starveOn: tt.starveOn}
			}
			cfg := quickConfig(t, pol)
			cfg.Epochs = epochs
			cfg.Faults = &FaultPlan{} // enables degradation, injects nothing itself
			cfg.Obs = reg

			got, err := Run(cfg)
			if err != nil {
				t.Fatalf("forced-failure run aborted: %v", err)
			}
			if len(got.Stats) != epochs {
				t.Fatalf("run incomplete: %d of %d epochs", len(got.Stats), epochs)
			}
			s := reg.Snapshot()
			if c := s.Counters["sim.fault.solver_errors"]; c != tt.wantErrors {
				t.Errorf("sim.fault.solver_errors = %g, want %g", c, tt.wantErrors)
			}
			if c := s.Counters["sim.fault.degraded_epochs"]; c != tt.wantDegrade {
				t.Errorf("sim.fault.degraded_epochs = %g, want %g", c, tt.wantDegrade)
			}
			if c := s.Counters["resilience.fallbacks"]; c != tt.wantDegrade {
				t.Errorf("resilience.fallbacks = %g, want %g", c, tt.wantDegrade)
			}
			if tt.reference != nil {
				assertSameDynamics(t, tt.reference(t), got)
			}
		})
	}
}

// TestForcedFailureAbortsWithoutFaultPlan pins the contract boundary: the
// degradation paths exist only under a fault plan; without one a failed
// strategy determination aborts the run.
func TestForcedFailureAbortsWithoutFaultPlan(t *testing.T) {
	cfg := quickConfig(t, &flakyPolicy{Policy: policy.NewMFGCP(), failOn: map[int]bool{0: true}})
	if _, err := Run(cfg); !errors.Is(err, errInjectedPrepare) {
		t.Fatalf("got %v, want the injected prepare failure to abort the run", err)
	}
}
