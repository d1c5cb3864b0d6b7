package policy

import (
	"context"
	"errors"
	"testing"

	"repro/internal/engine"
	"repro/internal/resilience"
)

// TestNonConvergedNeverCached pins the cache hygiene contract: when
// TolerateNonConvergence accepts a partial equilibrium for the epoch, that
// partial must NOT be published to the equilibrium cache — a cached partial
// would otherwise silently answer every later epoch with the same key, turning
// a one-epoch tolerance into a permanent wrong fixed point.
func TestNonConvergedNeverCached(t *testing.T) {
	ctx := testContext(t, 8)
	ctx.Solver.MaxIters = 1 // every solve stops non-converged
	ctx.Solver.Tol = 1e-12

	cache, err := engine.NewCache(64)
	if err != nil {
		t.Fatal(err)
	}
	pol := NewMFGCP()
	pol.SetEquilibriumCache(cache)
	if err := pol.Prepare(ctx); err != nil {
		t.Fatalf("tolerant Prepare failed: %v", err)
	}
	nonConverged := 0
	for _, eq := range pol.equilibria {
		if eq != nil && !eq.Converged {
			nonConverged++
		}
	}
	if nonConverged == 0 {
		t.Fatal("no solve ended non-converged: the scenario does not exercise the guard")
	}
	for _, e := range cache.Export() {
		if !e.Value.Converged {
			t.Fatalf("non-converged equilibrium cached under %q", e.Key)
		}
	}

	// Control: the same setup with a workable iteration budget does cache.
	ctx2 := testContext(t, 8)
	pol2 := NewMFGCP()
	pol2.SetEquilibriumCache(cache)
	if err := pol2.Prepare(ctx2); err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	if cache.Len() == 0 {
		t.Fatal("converged equilibria were not cached: the control is broken")
	}
}

// TestPrepareHonoursCancellation checks Prepare aborts with the context error
// when the epoch context is already cancelled.
func TestPrepareHonoursCancellation(t *testing.T) {
	ctx := testContext(t, 8)
	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	ctx.Ctx = cctx
	err := NewMFGCP().Prepare(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Prepare under cancelled context: got %v, want context.Canceled", err)
	}
}

// TestPrepareWithRecoveryLadder checks an installed escalation ladder rescues
// an iteration-starved epoch that would otherwise fail outright.
func TestPrepareWithRecoveryLadder(t *testing.T) {
	ctx := testContext(t, 8)
	ctx.Solver.MaxIters = 6 // the solves need ~8–15 iterations

	strict := NewMFGCP()
	strict.TolerateNonConvergence = false
	if err := strict.Prepare(ctx); !errors.Is(err, engine.ErrNotConverged) {
		t.Fatalf("iteration-starved Prepare: got %v, want ErrNotConverged", err)
	}

	recovered := NewMFGCP()
	recovered.TolerateNonConvergence = false
	e := resilience.Escalation{
		MaxAttempts:    4,
		DampingFactor:  0.99,
		MinDamping:     0.05,
		GrowIterBudget: true,
		AcceptPartial:  false,
	}
	recovered.SetRecovery(&e)
	if err := recovered.Prepare(ctx); err != nil {
		t.Fatalf("Prepare with recovery ladder failed: %v", err)
	}
}

// TestMFGCPCheckpointRoundTrip round-trips the prepared strategy through
// CheckpointState/RestoreState and checks the restored policy serves identical
// caching rates — the property the simulator's bit-for-bit resume rests on.
func TestMFGCPCheckpointRoundTrip(t *testing.T) {
	ctx := testContext(t, 8)
	pol := NewMFGCP()
	if err := pol.Prepare(ctx); err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	state, err := pol.CheckpointState()
	if err != nil {
		t.Fatalf("CheckpointState: %v", err)
	}

	restored := NewMFGCP()
	if err := restored.RestoreState(state); err != nil {
		t.Fatalf("RestoreState: %v", err)
	}
	for k := 0; k < ctx.Params.K; k += 3 {
		for _, q := range []float64{0, 40, 90} {
			want, err := pol.Rate(0, k, 0.4, 5, q)
			if err != nil {
				t.Fatalf("Rate: %v", err)
			}
			got, err := restored.Rate(0, k, 0.4, 5, q)
			if err != nil {
				t.Fatalf("restored Rate: %v", err)
			}
			if got != want {
				t.Fatalf("Rate(k=%d,q=%g): restored %g != original %g", k, q, got, want)
			}
		}
	}

	// Corrupt state must error, not panic.
	if err := NewMFGCP().RestoreState([]byte("garbage")); err == nil {
		t.Fatal("garbage state accepted")
	}
	if len(state) > 10 {
		if err := NewMFGCP().RestoreState(state[:len(state)/2]); err == nil {
			t.Fatal("truncated state accepted")
		}
	}
}
