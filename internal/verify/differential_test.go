package verify

import (
	"testing"

	"repro/internal/mec"
	"repro/internal/policy"
	"repro/internal/sim"
)

func TestSchemeAgreementOnDefaults(t *testing.T) {
	cfg, w := defaultInputs()
	vs, err := SchemeAgreement(cfg, w, DefaultTolerances())
	if err != nil {
		t.Fatalf("scheme agreement: %v", err)
	}
	if len(vs) != 0 {
		t.Fatalf("implicit and explicit schemes disagree beyond tolerance: %v", vs)
	}
}

// TestSchemeDifferentialCatchesSeededViolation is the mutation test of the
// cross-scheme differential: the genuine O(dt) gap between the integrators
// must trip the oracle once the tolerance is tightened below it, and a
// tampered observable must trip it at the default tolerance.
func TestSchemeDifferentialCatchesSeededViolation(t *testing.T) {
	cfg, w := defaultInputs()

	t.Run("broken-tolerance", func(t *testing.T) {
		tol := DefaultTolerances()
		tol.SchemeTol = 1e-9
		tol.DensityTol = 1e-9
		vs, err := SchemeAgreement(cfg, w, tol)
		if err != nil {
			t.Fatalf("scheme agreement: %v", err)
		}
		if !hasOracle(vs, "scheme-differential") {
			t.Fatal("tolerance below the real O(dt) gap must fail the differential")
		}
	})
	t.Run("tampered-observables", func(t *testing.T) {
		a, b := solvedEq(t), solvedEq(t)
		tol := DefaultTolerances()
		if vs := CompareObservables(a, b, "scheme-differential", tol); len(vs) != 0 {
			t.Fatalf("identical solves must compare clean: %v", vs)
		}
		b.Snapshots[2].Price += a.Config.Params.PHat // 100% of the price scale
		if vs := CompareObservables(a, b, "scheme-differential", tol); !hasOracle(vs, "scheme-differential") {
			t.Fatalf("tampered price path not caught: %v", vs)
		}

		b = solvedEq(t)
		b.Snapshots[1].MeanControl += 2 * tol.SchemeTol
		if vs := CompareObservables(a, b, "scheme-differential", tol); !hasOracle(vs, "scheme-differential") {
			t.Fatalf("tampered mean control not caught: %v", vs)
		}

		b = solvedEq(t)
		last := b.FPK.Lambda[len(b.FPK.Lambda)-1]
		for k := range last {
			last[k] *= 1.5 // 50% L1 mass of disagreement
		}
		if vs := CompareObservables(a, b, "scheme-differential", tol); !hasOracle(vs, "scheme-differential") {
			t.Fatalf("tampered final density not caught: %v", vs)
		}
	})
}

func TestBitEqualCatchesSingleBit(t *testing.T) {
	a, b := solvedEq(t), solvedEq(t)
	if vs := BitEqual(a, b, "cache-bit-equality"); len(vs) != 0 {
		t.Fatalf("two cold solves of identical inputs differ: %v", vs)
	}
	b.HJB.V[1][1] += 1e-13
	if vs := BitEqual(a, b, "cache-bit-equality"); !hasOracle(vs, "cache-bit-equality") {
		t.Fatal("single-ulp value-function tamper not caught")
	}

	b = solvedEq(t)
	b.Residuals[0] *= 1 + 1e-15
	if vs := BitEqual(a, b, "cache-bit-equality"); !hasOracle(vs, "cache-bit-equality") {
		t.Fatal("residual-history tamper not caught")
	}
}

func TestCacheBitEqualityOnDefaults(t *testing.T) {
	cfg, w := defaultInputs()
	vs, err := CacheBitEquality(cfg, w)
	if err != nil {
		t.Fatalf("cache bit equality: %v", err)
	}
	if len(vs) != 0 {
		t.Fatalf("cache round-trip not bit-identical: %v", vs)
	}
}

func TestCheckpointResumeOnDefaults(t *testing.T) {
	opts := Options{Seed: 7}.normalise()
	vs, err := CheckpointResume(opts.simConfig, t.TempDir())
	if err != nil {
		t.Fatalf("checkpoint resume: %v", err)
	}
	if len(vs) != 0 {
		t.Fatalf("resumed run not bit-identical to uninterrupted run: %v", vs)
	}
}

func TestCheckpointResumeRejectsSingleEpoch(t *testing.T) {
	mk := func() sim.Config {
		p := mec.Default()
		p.M, p.K = 4, 2
		cfg := sim.DefaultConfig(p, policy.NewRR())
		cfg.Epochs = 1
		return cfg
	}
	if _, err := CheckpointResume(mk, t.TempDir()); err == nil {
		t.Fatal("single-epoch config cannot be killed mid-run; want error")
	}
}
