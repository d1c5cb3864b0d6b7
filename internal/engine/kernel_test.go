package engine

import (
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/mec"
	"repro/internal/pde"
)

// The deprecated Kernel block is validated and otherwise ignored. The tests
// here pin both halves: validation rejects what it always rejected, and no
// accepted value changes a solve, its cache key or its allocations.

// kernelConfig returns a configuration on a larger grid than the golden one.
func kernelConfig() (Config, Workload) {
	cfg := DefaultConfig(mec.Default())
	cfg.NH = 41
	cfg.NQ = 101
	cfg.Steps = 30
	return cfg, Workload{Requests: 10, Pop: 0.3, Timeliness: 2}
}

// TestGoldenEquivalenceParallelKernel: a Workers value from the retired
// line-sweep fan-out still reproduces the golden equilibrium bit-for-bit.
func TestGoldenEquivalenceParallelKernel(t *testing.T) {
	g := loadGolden(t)
	cfg, w := goldenConfig(g)
	cfg.Kernel = KernelConfig{Workers: 4}
	eq, err := Solve(cfg, w)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	const tol = 1e-12
	if d := maxAbsDiff(t, "V0", eq.HJB.V[0], g.V0); d > tol {
		t.Errorf("workers=4: V(0,·) differs by %g (> %g)", d, tol)
	}
	if d := maxAbsDiff(t, "X0", eq.HJB.X[0], g.X0); d > tol {
		t.Errorf("workers=4: x*(0,·) differs by %g (> %g)", d, tol)
	}
	if d := maxAbsDiff(t, "LambdaT", eq.FPK.Lambda[g.Steps], g.LambdaT); d > tol {
		t.Errorf("workers=4: λ(T,·) differs by %g (> %g)", d, tol)
	}
	if eq.Iterations != g.Iterations {
		t.Errorf("workers=4: iterations %d, golden %d", eq.Iterations, g.Iterations)
	}
}

// TestKernelWorkersBitExactOnLargeGrid: Workers stays bit-exact at every
// count on a grid larger than the golden one.
func TestKernelWorkersBitExactOnLargeGrid(t *testing.T) {
	cfg, w := kernelConfig()
	ref, err := Solve(cfg, w)
	if err != nil {
		t.Fatalf("serial solve: %v", err)
	}
	cfg.Kernel.Workers = 4
	got, err := Solve(cfg, w)
	if err != nil {
		t.Fatalf("parallel solve: %v", err)
	}
	if got.Iterations != ref.Iterations {
		t.Fatalf("iterations: serial %d, parallel %d", ref.Iterations, got.Iterations)
	}
	for n := range ref.HJB.X {
		for k := range ref.HJB.X[n] {
			if got.HJB.X[n][k] != ref.HJB.X[n][k] || got.HJB.V[n][k] != ref.HJB.V[n][k] {
				t.Fatalf("V/X differ at level %d, index %d with 4 workers", n, k)
			}
		}
	}
	for n := range ref.FPK.Lambda {
		for k := range ref.FPK.Lambda[n] {
			if got.FPK.Lambda[n][k] != ref.FPK.Lambda[n][k] {
				t.Fatalf("λ differs at level %d, index %d with 4 workers", n, k)
			}
		}
	}
}

// TestSessionZeroAllocParallelKernel: no accepted kernel configuration costs
// the steady-state iteration an allocation.
func TestSessionZeroAllocParallelKernel(t *testing.T) {
	for _, kc := range []KernelConfig{
		{Workers: 4},
		{Workers: 2, Precision: PrecisionFloat32},
	} {
		t.Run(fmt.Sprintf("workers=%d,precision=%s", kc.Workers, kc.Precision), func(t *testing.T) {
			cfg, w := kernelConfig()
			cfg.Kernel = kc
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
			allocs := testing.AllocsPerRun(5, func() {
				if _, err := s.iterate(3); err != nil {
					t.Fatalf("iterate: %v", err)
				}
			})
			if allocs != 0 {
				t.Fatalf("steady-state iteration with kernel %+v allocates %.1f objects/op, want 0", kc, allocs)
			}
		})
	}
}

// TestFloat32KernelSolves: the float32 precision is still accepted with the
// implicit scheme, and the solve converges.
func TestFloat32KernelSolves(t *testing.T) {
	cfg, w := smallConfig()
	cfg.Kernel.Precision = PrecisionFloat32
	eq, err := Solve(cfg, w)
	if err != nil {
		t.Fatalf("float32 solve: %v", err)
	}
	if !eq.Converged {
		t.Fatal("float32 solve did not converge")
	}
}

// TestKernelConfigValidate: KernelConfig.Validate, the only reader of the
// deprecated fields, accepts every value it always accepted and rejects
// negative workers, unknown precisions and float32 off the implicit scheme.
func TestKernelConfigValidate(t *testing.T) {
	good := []KernelConfig{
		{},
		{Workers: 8},
		{Workers: 1 << 20},
		{Precision: PrecisionFloat64},
		{Workers: 2, Precision: PrecisionFloat32},
	}
	for _, kc := range good {
		if err := kc.Validate(pde.Implicit); err != nil {
			t.Errorf("Validate(%+v): %v", kc, err)
		}
	}
	if err := (KernelConfig{Workers: -1}).Validate(pde.Implicit); err == nil {
		t.Error("negative workers accepted")
	}
	if err := (KernelConfig{Precision: "float16"}).Validate(pde.Implicit); err == nil {
		t.Error("unknown precision accepted")
	}
	if err := (KernelConfig{Precision: PrecisionFloat32}).Validate(pde.Explicit); err == nil {
		t.Error("float32 with the explicit scheme accepted")
	}
	if err := (KernelConfig{Precision: PrecisionFloat64}).Validate(pde.Explicit); err != nil {
		t.Errorf("float64 with the explicit scheme rejected: %v", err)
	}
}

// TestKernelConfigValidation: Config.Validate still rejects a bad kernel
// block at config time.
func TestKernelConfigValidation(t *testing.T) {
	cfg, _ := smallConfig()
	cfg.Kernel.Workers = -1
	if err := cfg.Validate(); err == nil {
		t.Error("negative kernel workers accepted")
	}
	cfg, _ = smallConfig()
	cfg.Kernel.Precision = "float16"
	if err := cfg.Validate(); err == nil {
		t.Error("unknown kernel precision accepted")
	}
	cfg, _ = smallConfig()
	cfg.Scheme = "explicit"
	cfg.Kernel.Precision = PrecisionFloat32
	if err := cfg.Validate(); err == nil {
		t.Error("float32 + explicit scheme accepted")
	}
}

// TestCacheKeyKernel: no kernel setting changes the cache key. Keys stored
// under the retired "Prec=float32" segment are never produced again.
func TestCacheKeyKernel(t *testing.T) {
	cfg, w := smallConfig()
	base := CacheKey(cfg, w)

	cfg.Kernel.Workers = 8
	if CacheKey(cfg, w) != base {
		t.Error("worker count changed the cache key")
	}
	cfg.Kernel.Workers = 0

	cfg.Kernel.Precision = PrecisionFloat64
	if CacheKey(cfg, w) != base {
		t.Error(`explicit "float64" precision changed the cache key; it is the default path`)
	}
	cfg.Kernel.Precision = PrecisionFloat32
	if CacheKey(cfg, w) != base {
		t.Error("float32 precision changed the cache key; it runs the float64 kernel")
	}
}

// TestKernelConfigJSON: the kernel block round-trips through the config
// codec, merges onto defaults, and rejects unknown keys inside it.
func TestKernelConfigJSON(t *testing.T) {
	cfg, _ := smallConfig()
	cfg.Kernel = KernelConfig{Workers: 4, Precision: PrecisionFloat32}
	raw, err := json.Marshal(cfg)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var got Config
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if got.Kernel != cfg.Kernel {
		t.Errorf("kernel round-trip: got %+v, want %+v", got.Kernel, cfg.Kernel)
	}

	merged, _ := smallConfig()
	if err := json.Unmarshal([]byte(`{"Kernel":{"Workers":2}}`), &merged); err != nil {
		t.Fatalf("merge: %v", err)
	}
	if merged.Kernel.Workers != 2 || merged.Kernel.Precision != "" {
		t.Errorf("sparse kernel merge: got %+v", merged.Kernel)
	}

	bad, _ := smallConfig()
	if err := json.Unmarshal([]byte(`{"Kernel":{"Threads":2}}`), &bad); err == nil {
		t.Error("unknown kernel key accepted")
	}
}
