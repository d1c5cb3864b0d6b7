package engine

import (
	"bytes"
	"testing"

	"repro/internal/obs"
)

// TestSolveRecordsTelemetry verifies that an injected recorder observes the
// whole Algorithm-2 pipeline: best-response iterations, the HJB/FPK passes
// they trigger, and the convergence outcome.
func TestSolveRecordsTelemetry(t *testing.T) {
	reg := obs.NewRegistry(nil)
	cfg := solverConfig()
	cfg.Obs = reg
	eq, err := Solve(cfg, defaultWorkload())
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	s := reg.Snapshot()
	if got := s.Counters["core.solver.iterations"]; got != float64(eq.Iterations) {
		t.Errorf("iteration counter = %g, want %d", got, eq.Iterations)
	}
	if s.Counters["core.solver.solves"] != 1 || s.Counters["core.solver.converged"] != 1 {
		t.Errorf("solve counters wrong: %+v", s.Counters)
	}
	if got := s.Counters["pde.hjb.solves"]; got != float64(eq.Iterations) {
		t.Errorf("HJB solves = %g, want one per iteration (%d)", got, eq.Iterations)
	}
	if s.Counters["pde.hjb.sweeps"] <= 0 || s.Counters["pde.fpk.sweeps"] <= 0 {
		t.Errorf("sweep counters missing: %+v", s.Counters)
	}
	res := s.Histograms["core.solver.residual"]
	if res.Count != uint64(len(eq.Residuals)) {
		t.Errorf("residual histogram has %d samples, want %d", res.Count, len(eq.Residuals))
	}
	if res.Min != eq.Residuals[len(eq.Residuals)-1] {
		t.Errorf("residual histogram min %g, want final residual %g", res.Min, eq.Residuals[len(eq.Residuals)-1])
	}
	if s.Histograms["core.solve.seconds"].Count != 1 {
		t.Errorf("solve span not recorded: %+v", s.Histograms)
	}
	if s.Gauges["core.solver.last_iterations"] != float64(eq.Iterations) {
		t.Errorf("last_iterations gauge = %g, want %d", s.Gauges["core.solver.last_iterations"], eq.Iterations)
	}
}

// TestSolveResultsUnaffectedByRecorder pins the no-observer-effect property:
// telemetry must never change the numerics.
func TestSolveResultsUnaffectedByRecorder(t *testing.T) {
	plain, err := Solve(solverConfig(), defaultWorkload())
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	cfg := solverConfig()
	cfg.Obs = obs.NewRegistry(nil)
	recorded, err := Solve(cfg, defaultWorkload())
	if err != nil {
		t.Fatalf("Solve with recorder: %v", err)
	}
	if plain.Iterations != recorded.Iterations {
		t.Fatalf("iterations differ: %d vs %d", plain.Iterations, recorded.Iterations)
	}
	for i := range plain.Residuals {
		if plain.Residuals[i] != recorded.Residuals[i] {
			t.Errorf("residual %d differs: %g vs %g", i, plain.Residuals[i], recorded.Residuals[i])
		}
	}
	for n := range plain.HJB.X {
		for k := range plain.HJB.X[n] {
			if plain.HJB.X[n][k] != recorded.HJB.X[n][k] {
				t.Fatalf("strategy differs at step %d node %d", n, k)
			}
		}
	}
}

// TestSerializationStripsRecorder verifies that a live recorder never leaks
// into a gob archive (gob cannot encode arbitrary Recorder implementations)
// and that the caller's equilibrium is left untouched.
func TestSerializationStripsRecorder(t *testing.T) {
	reg := obs.NewRegistry(nil)
	cfg := solverConfig()
	cfg.Obs = reg
	eq, err := Solve(cfg, defaultWorkload())
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	var buf bytes.Buffer
	if _, err := eq.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo with recorder attached: %v", err)
	}
	if eq.Config.Obs == nil {
		t.Error("WriteTo must not mutate the caller's config")
	}
	back, err := ReadEquilibrium(&buf)
	if err != nil {
		t.Fatalf("ReadEquilibrium: %v", err)
	}
	if back.Config.Obs != nil {
		t.Error("archive must not carry a recorder")
	}
	if back.Iterations != eq.Iterations {
		t.Errorf("round trip lost diagnostics: %d vs %d", back.Iterations, eq.Iterations)
	}
}
