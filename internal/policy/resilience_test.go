package policy

import (
	"context"
	"errors"
	"runtime"
	"testing"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/resilience"
)

// TestNonConvergedNeverCached pins the cache hygiene contract: when
// TolerateNonConvergence accepts a partial equilibrium for the epoch, that
// partial must NOT be published to the equilibrium cache — a cached partial
// would otherwise silently answer every later epoch with the same key, turning
// a one-epoch tolerance into a permanent wrong fixed point.
func TestNonConvergedNeverCached(t *testing.T) {
	cache, err := engine.NewCache(64)
	if err != nil {
		t.Fatal(err)
	}
	ctx := testContext(t, 8)
	ctx.Solver.MaxIters = 1 // every solve stops non-converged
	ctx.Solver.Tol = 1e-12
	ctx.Cache = cache

	pol := NewMFGCP()
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
	ctx2.Cache = cache
	pol2 := NewMFGCP()
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
	ctx.Recovery = &e
	if err := recovered.Prepare(ctx); err != nil {
		t.Fatalf("Prepare with recovery ladder failed: %v", err)
	}
}

// TestPrepareFailureStopsAndKeepsStrategy pins what a failed Prepare does:
// no content starts once one has failed, and the strategy of the last
// successful Prepare stays in place, whole.
func TestPrepareFailureStopsAndKeepsStrategy(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ctx := testContext(t, 8)
	p := NewMFGCP()
	p.TolerateNonConvergence = false
	p.DisableWarmStart = true // every solve of the failing epoch starts cold
	p.Capacity = 1.5          // admissions too, so both slices are checked
	if err := p.Prepare(ctx); err != nil {
		t.Fatal(err)
	}
	before := p.mfgcpStrategy

	reg := obs.NewRegistry(nil)
	ctx.Epoch = 1
	ctx.Solver.MaxIters = 1 // every solve stops non-converged
	ctx.Solver.Obs = reg
	if err := p.Prepare(ctx); !errors.Is(err, engine.ErrNotConverged) {
		t.Fatalf("iteration-starved strict Prepare: got %v, want ErrNotConverged", err)
	}
	if n := reg.Snapshot().Counters["core.solver.solves"]; n >= float64(ctx.Params.K) {
		t.Errorf("%g solves after the first content failed, want fewer than K = %d", n, ctx.Params.K)
	}
	after := p.mfgcpStrategy
	if after.k != before.k || len(after.equilibria) != len(before.equilibria) || len(after.admit) != len(before.admit) {
		t.Fatalf("failed Prepare changed the strategy's shape: k %d → %d", before.k, after.k)
	}
	for k := range before.equilibria {
		if after.equilibria[k] != before.equilibria[k] {
			t.Errorf("content %d: failed Prepare replaced the equilibrium", k)
		}
	}
	for k := range before.admit {
		if after.admit[k] != before.admit[k] {
			t.Errorf("content %d: failed Prepare changed the admission %g → %g", k, before.admit[k], after.admit[k])
		}
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
