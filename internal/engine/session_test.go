package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/mec"
)

func smallConfig() (Config, Workload) {
	cfg := DefaultConfig(mec.Default())
	cfg.NH = 7
	cfg.NQ = 21
	cfg.Steps = 30
	return cfg, Workload{Requests: 10, Pop: 0.3, Timeliness: 2}
}

// warmSession returns a session for cfg that has begun solving w and run two
// warm-up iterations, so one-time lazy paths (if any) have settled.
func warmSession(t *testing.T, cfg Config, w Workload) *Session {
	t.Helper()
	s, err := NewSession(cfg)
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	if err := s.begin(w, nil); err != nil {
		t.Fatalf("begin: %v", err)
	}
	for i := 0; i < 2; i++ {
		if _, err := s.iterate(i + 1); err != nil {
			t.Fatalf("warm-up iterate: %v", err)
		}
	}
	return s
}

// TestSessionSteadyStateZeroAlloc pins the engine's core guarantee: once a
// session is warmed up, one damped best-response iteration performs zero heap
// allocations (telemetry disabled). Regressions here silently reintroduce
// the per-iteration garbage the engine layer was built to eliminate.
func TestSessionSteadyStateZeroAlloc(t *testing.T) {
	small, w := smallConfig()
	large := small
	large.NH, large.NQ = 41, 101
	for _, cfg := range []Config{small, large} {
		t.Run(fmt.Sprintf("%dx%dx%d", cfg.NH, cfg.NQ, cfg.Steps), func(t *testing.T) {
			s := warmSession(t, cfg, w)
			allocs := testing.AllocsPerRun(10, func() {
				if _, err := s.iterate(3); err != nil {
					t.Fatalf("iterate: %v", err)
				}
			})
			if allocs != 0 {
				t.Fatalf("steady-state best-response iteration allocates %.1f objects/op, want 0", allocs)
			}
		})
	}
}

// TestSessionZeroAllocParallelKernel: parallel workers hold one session each
// (ensemble solves, policy.MFGCP), so sessions that iterate in turn in one
// process share nothing that allocates. Each case warms one 41×101×30 session
// per worker and requires a round of one iteration per session to allocate
// nothing. The precision part of a case name is the kernel precision the
// case ran under before that setting was removed; every session now runs
// the one float64 kernel.
func TestSessionZeroAllocParallelKernel(t *testing.T) {
	cfg, w := smallConfig()
	cfg.NH, cfg.NQ = 41, 101
	for _, tc := range []struct {
		name    string
		workers int
	}{
		{"workers=4,precision=", 4},
		{"workers=2,precision=float32", 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sessions := make([]*Session, tc.workers)
			for i := range sessions {
				sessions[i] = warmSession(t, cfg, w)
			}
			allocs := testing.AllocsPerRun(5, func() {
				for _, s := range sessions {
					if _, err := s.iterate(3); err != nil {
						t.Fatalf("iterate: %v", err)
					}
				}
			})
			if allocs != 0 {
				t.Fatalf("a round over %d sessions allocates %.1f objects/op, want 0", tc.workers, allocs)
			}
		})
	}
}

// TestExportAllocatesOneBackingArray pins the layout of a solved
// equilibrium: its three paths are copied into one backing array, so an
// export makes a handful of allocations however many time levels the grid
// has (one per level before).
func TestExportAllocatesOneBackingArray(t *testing.T) {
	cfg, w := smallConfig()
	s, err := NewSession(cfg)
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	if _, err := s.Solve(w, nil); err != nil {
		t.Fatalf("Solve: %v", err)
	}
	// The equilibrium, its two solutions, the backing array, the level
	// headers, RawMass, Snapshots and Residuals.
	const want = 8
	if allocs := testing.AllocsPerRun(10, func() { s.export() }); allocs > want {
		t.Errorf("export allocates %.0f objects for %d time levels, want at most %d", allocs, cfg.Steps+1, want)
	}
}

// TestNewSessionCopiesInitLambda checks that a session owns its initial
// density: overwriting the caller's slice after NewSession changes nothing.
func TestNewSessionCopiesInitLambda(t *testing.T) {
	cfg, w := smallConfig()
	ref, err := NewSession(cfg)
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	want, err := ref.Solve(w, nil)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	lambda := append([]float64(nil), ref.lambda0...)
	cfg.InitLambda = lambda
	s, err := NewSession(cfg)
	if err != nil {
		t.Fatalf("NewSession with an initial density: %v", err)
	}
	for k := range lambda {
		lambda[k] = math.NaN()
	}
	got, err := s.Solve(w, nil)
	if err != nil {
		t.Fatalf("Solve after the caller overwrote its initial density: %v", err)
	}
	samePathBits(t, got, want)
}

// TestSessionSolveMatchesOneShot confirms the reusable-session path and the
// package-level one-shot path produce identical equilibria.
func TestSessionSolveMatchesOneShot(t *testing.T) {
	cfg, w := smallConfig()
	oneShot, err := Solve(cfg, w)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	s, err := NewSession(cfg)
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	viaSession, err := s.Solve(w, nil)
	if err != nil {
		t.Fatalf("session Solve: %v", err)
	}
	if oneShot.Iterations != viaSession.Iterations {
		t.Errorf("iterations: one-shot %d, session %d", oneShot.Iterations, viaSession.Iterations)
	}
	for n := range oneShot.HJB.X {
		for k := range oneShot.HJB.X[n] {
			if oneShot.HJB.X[n][k] != viaSession.HJB.X[n][k] {
				t.Fatalf("X[%d][%d]: one-shot %g, session %g", n, k, oneShot.HJB.X[n][k], viaSession.HJB.X[n][k])
			}
		}
	}
}

// TestSessionWarmStartConverges checks that warm-starting from a neighbouring
// workload's equilibrium never takes more iterations than the cold start.
func TestSessionWarmStartConverges(t *testing.T) {
	cfg, w := smallConfig()
	s, err := NewSession(cfg)
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	base, err := s.Solve(w, nil)
	if err != nil {
		t.Fatalf("cold solve: %v", err)
	}
	near := Workload{Requests: w.Requests * 1.02, Pop: w.Pop, Timeliness: w.Timeliness}
	cold, err := s.Solve(near, nil)
	if err != nil {
		t.Fatalf("cold near solve: %v", err)
	}
	warm, err := s.Solve(near, base)
	if err != nil {
		t.Fatalf("warm near solve: %v", err)
	}
	if warm.Iterations > cold.Iterations {
		t.Errorf("warm start took %d iterations, cold start %d", warm.Iterations, cold.Iterations)
	}
	if !warm.Converged {
		t.Errorf("warm-started solve did not converge")
	}
}

// BenchmarkEngineSession measures one steady-state best-response iteration on
// the experiments' default grid. CI runs it with -benchmem and fails if it
// reports a non-zero allocs/op.
func BenchmarkEngineSession(b *testing.B) {
	cfg := DefaultConfig(mec.Default())
	w := Workload{Requests: 10, Pop: 0.3, Timeliness: 2}
	s, err := NewSession(cfg)
	if err != nil {
		b.Fatalf("NewSession: %v", err)
	}
	if err := s.begin(w, nil); err != nil {
		b.Fatalf("begin: %v", err)
	}
	if _, err := s.iterate(1); err != nil {
		b.Fatalf("warm-up iterate: %v", err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.iterate(2); err != nil {
			b.Fatalf("iterate: %v", err)
		}
	}
}

// BenchmarkEngineSolveCold measures a full cold equilibrium solve (session
// construction included) for comparison with the warm-started path.
func BenchmarkEngineSolveCold(b *testing.B) {
	cfg, w := smallConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(cfg, w); err != nil {
			b.Fatalf("Solve: %v", err)
		}
	}
}

// BenchmarkEngineSolveWarm measures a repeated same-workload solve seeded
// with the previous fixed point on a reused session — the cache warm-start
// path of the policy layer.
func BenchmarkEngineSolveWarm(b *testing.B) {
	cfg, w := smallConfig()
	s, err := NewSession(cfg)
	if err != nil {
		b.Fatalf("NewSession: %v", err)
	}
	base, err := s.Solve(w, nil)
	if err != nil {
		b.Fatalf("base solve: %v", err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Solve(w, base); err != nil {
			b.Fatalf("warm solve: %v", err)
		}
	}
}

// iterCtx is a context that is cancelled from its n-th Err check on.
// SolveContext checks once before each iteration, so a solve under it stops
// mid-loop after n−1 iterations.
type iterCtx struct {
	context.Context
	n int
}

func (c *iterCtx) Err() error {
	if c.n--; c.n <= 0 {
		return context.Canceled
	}
	return nil
}

// TestSessionReusableAfterInterruptedSolve pins SolveContext's promise to
// leave the session reusable for solves that stop early: after a solve
// cancelled mid-loop, or one stopped at MaxIters, the session's next solve
// matches a fresh session's bit for bit. A daemon's pooled session passes to
// the next flight of its configuration whatever its last solve's outcome.
func TestSessionReusableAfterInterruptedSolve(t *testing.T) {
	cfg, w := smallConfig()
	first, err := Solve(cfg, w)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	// Capped at w's own iteration count, w still converges, and the harder
	// workload below stops at the cap.
	cfg.MaxIters = first.Iterations
	hard := Workload{Requests: 25, Pop: 0.8, Timeliness: 4}
	want, err := Solve(cfg, w)
	if err != nil {
		t.Fatalf("fresh capped Solve: %v", err)
	}
	interrupts := map[string]func(*Session) error{
		"cancelled mid-loop": func(s *Session) error {
			_, err := s.SolveContext(&iterCtx{Context: context.Background(), n: 3}, hard, nil)
			if !errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), "iteration 3") {
				return fmt.Errorf("got %v, want a cancellation at iteration 3", err)
			}
			return nil
		},
		"stopped at MaxIters": func(s *Session) error {
			eq, err := s.Solve(hard, nil)
			if !errors.Is(err, ErrNotConverged) || eq.Iterations != cfg.MaxIters {
				return fmt.Errorf("got %v, want ErrNotConverged after %d iterations", err, cfg.MaxIters)
			}
			return nil
		},
	}
	for name, interrupt := range interrupts {
		t.Run(name, func(t *testing.T) {
			s, err := NewSession(cfg)
			if err != nil {
				t.Fatalf("NewSession: %v", err)
			}
			if err := interrupt(s); err != nil {
				t.Fatalf("interrupted solve: %v", err)
			}
			got, err := s.Solve(w, nil)
			if err != nil {
				t.Fatalf("next solve: %v", err)
			}
			samePathBits(t, got, want)
			if got.Iterations != want.Iterations || got.Converged != want.Converged {
				t.Errorf("iterations %d, converged %v; a fresh session gives %d, %v",
					got.Iterations, got.Converged, want.Iterations, want.Converged)
			}
			for field, pair := range map[string][2]any{
				"Snapshots": {got.Snapshots, want.Snapshots},
				"Residuals": {got.Residuals, want.Residuals},
				"RawMass":   {got.FPK.RawMass, want.FPK.RawMass},
			} {
				if !sameBits(reflect.ValueOf(pair[0]), reflect.ValueOf(pair[1])) {
					t.Errorf("%s differ from a fresh session's", field)
				}
			}
		})
	}
}
