package engine

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestEquilibriumSerializationRoundTrip(t *testing.T) {
	eq := solveSmall(t)
	var buf bytes.Buffer
	n, err := eq.WriteTo(&buf)
	if err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("reported %d bytes, buffer has %d", n, buf.Len())
	}
	back, err := ReadEquilibrium(&buf)
	if err != nil {
		t.Fatalf("ReadEquilibrium: %v", err)
	}
	if back.Grid != eq.Grid || back.Time != eq.Time {
		t.Fatal("grid/time mesh changed in round trip")
	}
	if back.Iterations != eq.Iterations || back.Converged != eq.Converged {
		t.Error("diagnostics changed in round trip")
	}
	for n := range eq.HJB.V {
		for k := range eq.HJB.V[n] {
			if back.HJB.V[n][k] != eq.HJB.V[n][k] {
				t.Fatalf("value function differs at [%d][%d]", n, k)
			}
			if back.HJB.X[n][k] != eq.HJB.X[n][k] {
				t.Fatalf("strategy differs at [%d][%d]", n, k)
			}
			if back.FPK.Lambda[n][k] != eq.FPK.Lambda[n][k] {
				t.Fatalf("density differs at [%d][%d]", n, k)
			}
		}
	}
	// The restored equilibrium is functional: interpolators and rollouts work.
	x, err := back.HJB.ControlAt(0.3, eq.Config.Params.ChMean, 50)
	if err != nil {
		t.Fatal(err)
	}
	if x < 0 || x > 1 {
		t.Fatalf("restored control %g out of range", x)
	}
	roll, err := back.SimulateRollout(eq.Config.Params.ChMean, 60, 1)
	if err != nil {
		t.Fatal(err)
	}
	if u, _ := roll.Final(); math.IsNaN(u) {
		t.Fatal("restored rollout produced NaN")
	}
}

func TestReadEquilibriumRejectsGarbage(t *testing.T) {
	if _, err := ReadEquilibrium(strings.NewReader("not a gob stream")); err == nil {
		t.Error("garbage input should error")
	}
	if _, err := ReadEquilibrium(strings.NewReader("")); err == nil {
		t.Error("empty input should error")
	}
}

func TestWarmStartSpeedsConvergence(t *testing.T) {
	cold := solveSmall(t)

	// Re-solve a slightly perturbed workload from the cold fixed point.
	w := defaultWorkload()
	w.Requests = 11
	cfg := solverConfig()
	cfg.WarmStart = cold
	warm, err := Solve(cfg, w)
	if err != nil {
		t.Fatalf("warm solve: %v", err)
	}
	coldAgain, err := Solve(solverConfig(), w)
	if err != nil {
		t.Fatalf("cold solve: %v", err)
	}
	if warm.Iterations >= coldAgain.Iterations {
		t.Errorf("warm start should converge faster: %d vs %d iterations",
			warm.Iterations, coldAgain.Iterations)
	}
	// Same fixed point regardless of the start.
	var worst float64
	for n := range warm.HJB.X {
		for k := range warm.HJB.X[n] {
			if d := math.Abs(warm.HJB.X[n][k] - coldAgain.HJB.X[n][k]); d > worst {
				worst = d
			}
		}
	}
	if worst > 5*cfg.Tol {
		t.Errorf("warm and cold solves disagree by %g (uniqueness, Theorem 2)", worst)
	}
}

func TestWarmStartValidation(t *testing.T) {
	cold := solveSmall(t)
	cfg := solverConfig()
	cfg.NQ = cold.Grid.Q.N + 10 // different grid
	cfg.WarmStart = cold
	if _, err := Solve(cfg, defaultWorkload()); err == nil {
		t.Error("grid mismatch should be rejected")
	}
	cfg = solverConfig()
	cfg.WarmStart = &Equilibrium{}
	if _, err := Solve(cfg, defaultWorkload()); err == nil {
		t.Error("warm start without solver outputs should be rejected")
	}
}
