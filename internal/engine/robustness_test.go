package engine

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"log/slog"
	"math"
	"testing"

	"repro/internal/mec"
	"repro/internal/obs"
	"repro/internal/pde"
)

// TestValidateRejectsNonFinite pins the configuration hardening: NaN and
// infinite tolerances, damping factors and blow-up thresholds must be rejected
// at Validate time. NaN fails every comparison, so a NaN Tol would make
// "residual < Tol" permanently false (the solve burns its whole iteration
// budget), while Tol = +Inf converges instantly to garbage — neither may pass.
func TestValidateRejectsNonFinite(t *testing.T) {
	base := DefaultConfig(mec.Default())
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"NaN Tol", func(c *Config) { c.Tol = math.NaN() }},
		{"+Inf Tol", func(c *Config) { c.Tol = math.Inf(1) }},
		{"zero Tol", func(c *Config) { c.Tol = 0 }},
		{"negative Tol", func(c *Config) { c.Tol = -1e-6 }},
		{"NaN Damping", func(c *Config) { c.Damping = math.NaN() }},
		{"zero Damping", func(c *Config) { c.Damping = 0 }},
		{"Damping above 1", func(c *Config) { c.Damping = 1.5 }},
		{"NaN BlowupResidual", func(c *Config) { c.BlowupResidual = math.NaN() }},
		{"+Inf BlowupResidual", func(c *Config) { c.BlowupResidual = math.Inf(1) }},
		{"negative BlowupResidual", func(c *Config) { c.BlowupResidual = -1 }},
		{"short InitLambda", func(c *Config) { c.InitLambda = []float64{1, 2} }},
		{"empty InitLambda", func(c *Config) { c.InitLambda = []float64{} }},
		{"long InitLambda", func(c *Config) { c.InitLambda = uniformLambda(c, c.NH*c.NQ+1) }},
		{"NaN InitLambda node", func(c *Config) { c.InitLambda = uniformLambda(c, 0); c.InitLambda[7] = math.NaN() }},
		{"+Inf InitLambda node", func(c *Config) { c.InitLambda = uniformLambda(c, 0); c.InitLambda[7] = math.Inf(1) }},
		{"negative InitLambda node", func(c *Config) { c.InitLambda = uniformLambda(c, 0); c.InitLambda[7] = -1e-9 }},
		{"zero-mass InitLambda", func(c *Config) { c.InitLambda = make([]float64, c.NH*c.NQ) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Fatalf("Validate accepted %s", tc.name)
			}
		})
	}
	if err := base.Validate(); err != nil {
		t.Fatalf("Validate rejected the default config: %v", err)
	}
	withLambda := base
	withLambda.InitLambda = uniformLambda(&withLambda, 0)
	withLambda.InitLambda[0] = 0
	if err := withLambda.Validate(); err != nil {
		t.Fatalf("Validate rejected a uniform initial density with one empty node: %v", err)
	}
}

// uniformLambda returns n equal density values, or one per grid node of c
// when n is 0.
func uniformLambda(c *Config, n int) []float64 {
	if n == 0 {
		n = c.NH * c.NQ
	}
	lambda := make([]float64, n)
	for k := range lambda {
		lambda[k] = 1
	}
	return lambda
}

// TestSolveContextCanceled verifies a solve under an already-cancelled context
// aborts promptly with the context error instead of running to completion.
func TestSolveContextCanceled(t *testing.T) {
	cfg, w := smallConfig()
	s, err := NewSession(cfg)
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.SolveContext(ctx, w, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("SolveContext under cancelled context: got %v, want context.Canceled", err)
	}
}

// TestFailedSolveRecordsTelemetry pins the telemetry of a solve that fails
// inside an iteration: the explicit scheme on 4 time steps violates the CFL
// bound in the first HJB sweep. Like the cancel and divergence exits, the
// failure ends the core.solve span with its stop reason and counts the
// solve, so the session's next solve reports workspace reuse.
func TestFailedSolveRecordsTelemetry(t *testing.T) {
	var logs bytes.Buffer
	reg := obs.NewRegistry(slog.New(slog.NewJSONHandler(&logs, &slog.HandlerOptions{Level: slog.LevelDebug})))
	cfg, w := smallConfig()
	cfg.Scheme = "explicit"
	cfg.Steps = 4
	cfg.Obs = reg
	s, err := NewSession(cfg)
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	var cfl *pde.ErrCFLViolation
	if _, err := s.Solve(w, nil); !errors.As(err, &cfl) {
		t.Fatalf("explicit solve on 4 steps: got %v, want a CFL violation", err)
	}
	if got := reg.Snapshot().Histograms["core.solve.seconds"].Count; got != 1 {
		t.Errorf("core.solve.seconds has %d samples after one failed solve, want 1", got)
	}
	var stopReasons []string
	sc := bufio.NewScanner(&logs)
	for sc.Scan() {
		var rec struct {
			Msg        string `json:"msg"`
			Span       string `json:"span"`
			StopReason string `json:"stop_reason"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("decode log line %q: %v", sc.Text(), err)
		}
		if rec.Msg == "span.end" && rec.Span == "core.solve" {
			stopReasons = append(stopReasons, rec.StopReason)
		}
	}
	if len(stopReasons) != 1 || stopReasons[0] != "error" {
		t.Errorf("core.solve span ends: stop reasons %q, want [error]", stopReasons)
	}

	if _, err := s.Solve(w, nil); !errors.As(err, &cfl) {
		t.Fatalf("second explicit solve: got %v, want a CFL violation", err)
	}
	if got := reg.Snapshot().Counters["engine.session.reused"]; got != 1 {
		t.Errorf("engine.session.reused = %g after a failed and a second solve, want 1", got)
	}
}

// TestSolveDivergenceDetection forces the blow-up guard by setting the
// threshold below the first residual: the solve must fail fast with
// ErrDiverged instead of iterating on a non-finite or runaway iterate.
func TestSolveDivergenceDetection(t *testing.T) {
	cfg, w := smallConfig()
	cfg.BlowupResidual = 1e-300 // every residual exceeds this
	s, err := NewSession(cfg)
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	eq, err := s.Solve(w, nil)
	if !errors.Is(err, ErrDiverged) {
		t.Fatalf("Solve with tiny blow-up threshold: got %v, want ErrDiverged", err)
	}
	if eq != nil {
		t.Fatalf("diverged solve returned an equilibrium")
	}
}

// TestNaNIterateDiverges pins the residual's NaN propagation: a NaN anywhere
// in an iterate must reach the divergence guard and never read as a zero
// residual. A warm start whose strategy path is all NaN fails with
// ErrDiverged, and a warm start whose density path has one +Inf node fails
// with an error, instead of either returning a converged equilibrium. An
// initial density with a +Inf node is refused before any solve.
func TestNaNIterateDiverges(t *testing.T) {
	cfg, w := smallConfig()
	s, err := NewSession(cfg)
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	warm, err := s.Solve(w, nil)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	for _, level := range warm.HJB.X {
		for k := range level {
			level[k] = math.NaN()
		}
	}
	eq, err := s.Solve(w, warm)
	if !errors.Is(err, ErrDiverged) {
		t.Fatalf("solve warm-started from a NaN strategy: got %v, want ErrDiverged", err)
	}
	if eq != nil {
		t.Fatalf("diverged solve returned an equilibrium (converged %v)", eq.Converged)
	}

	warm, err = s.Solve(w, nil)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	for _, level := range warm.FPK.Lambda {
		level[len(level)/2] = math.Inf(1)
	}
	if eq, err := s.Solve(w, warm); err == nil {
		t.Fatalf("solve from an infinite density path succeeded (converged %v, %d iterations)",
			eq.Converged, eq.Iterations)
	} else if eq != nil && eq.Converged {
		t.Fatalf("solve from an infinite density path returned a converged equilibrium with %v", err)
	}

	lambda := append([]float64(nil), s.lambda0...)
	lambda[len(lambda)/2] = math.Inf(1)
	cfg.InitLambda = lambda
	if _, err := NewSession(cfg); err == nil {
		t.Fatal("NewSession accepted an infinite initial density")
	}
}

// TestCacheExportRestore round-trips a populated cache through Export/Restore
// and checks the LRU order survives: the restored cache must evict in the same
// order as the original would have.
func TestCacheExportRestore(t *testing.T) {
	cfg, w := smallConfig()
	eq, err := Solve(cfg, w)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	src, err := NewCache(3)
	if err != nil {
		t.Fatalf("NewCache: %v", err)
	}
	src.Put(nil, "a", eq)
	src.Put(nil, "b", eq)
	src.Put(nil, "c", eq)
	if _, ok := src.Get(nil, "a"); !ok { // touch "a": LRU order is now b, c, a
		t.Fatal("missing key a")
	}

	exported := src.Export()
	if len(exported) != 3 {
		t.Fatalf("Export returned %d entries, want 3", len(exported))
	}
	wantOrder := []string{"b", "c", "a"} // LRU first
	for i, e := range exported {
		if e.Key != wantOrder[i] {
			t.Fatalf("export order[%d] = %q, want %q", i, e.Key, wantOrder[i])
		}
	}

	dst, err := NewCache(3)
	if err != nil {
		t.Fatalf("NewCache: %v", err)
	}
	dst.Restore(exported)
	if dst.Len() != 3 {
		t.Fatalf("restored cache has %d entries, want 3", dst.Len())
	}
	// One more insert must evict the LRU entry "b", proving order survived.
	dst.Put(nil, "d", eq)
	if _, ok := dst.Get(nil, "b"); ok {
		t.Fatal("LRU entry b survived the capacity eviction: restore lost the order")
	}
	for _, k := range []string{"c", "a", "d"} {
		if _, ok := dst.Get(nil, k); !ok {
			t.Fatalf("restored cache missing key %q", k)
		}
	}
}
