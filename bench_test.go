// Benchmarks regenerating every table and figure of the paper's evaluation
// (one benchmark per artefact), the ablation benches called out in DESIGN.md
// §5, and micro-benchmarks of the numerical kernels. Run with
//
//	go test -bench=. -benchmem
//
// The per-figure benches use the experiments' quick mode so a full sweep
// stays tractable; shapes (who wins, scaling in M, …) are identical to the
// full-size runs and asserted by the test suite.
package mfgcp_test

import (
	"fmt"
	"testing"

	mfgcp "repro"
	"repro/internal/engine"
	"repro/internal/exactgame"
	"repro/internal/experiments"
	"repro/internal/grid"
	"repro/internal/linalg"
	"repro/internal/mec"
	"repro/internal/obs"
	"repro/internal/pde"
	"repro/internal/policy"
	"repro/internal/sim"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	opt := experiments.Options{Seed: 1, Quick: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Run(id, opt); err != nil {
			b.Fatalf("%s: %v", id, err)
		}
	}
}

// --- One benchmark per paper artefact ---------------------------------------

func BenchmarkFig3ChannelEvolution(b *testing.B)     { benchExperiment(b, "fig3") }
func BenchmarkFig4MeanFieldEvolution(b *testing.B)   { benchExperiment(b, "fig4") }
func BenchmarkFig5CachingPolicy(b *testing.B)        { benchExperiment(b, "fig5") }
func BenchmarkFig6HeatmapQk(b *testing.B)            { benchExperiment(b, "fig6") }
func BenchmarkFig7HeatmapSigma(b *testing.B)         { benchExperiment(b, "fig7") }
func BenchmarkFig8PlacementCostSweep(b *testing.B)   { benchExperiment(b, "fig8") }
func BenchmarkFig9Convergence(b *testing.B)          { benchExperiment(b, "fig9") }
func BenchmarkFig10InitialDistribution(b *testing.B) { benchExperiment(b, "fig10") }
func BenchmarkFig11Eta1Sweep(b *testing.B)           { benchExperiment(b, "fig11") }
func BenchmarkFig12SchemesVsEta1(b *testing.B)       { benchExperiment(b, "fig12") }
func BenchmarkFig13PopularitySweep(b *testing.B)     { benchExperiment(b, "fig13") }
func BenchmarkFig14SchemeComparison(b *testing.B)    { benchExperiment(b, "fig14") }
func BenchmarkTable2ComputationTime(b *testing.B)    { benchExperiment(b, "table2") }

// --- Ablations (DESIGN.md §5) ------------------------------------------------

func quickSolver() engine.Config {
	cfg := engine.DefaultConfig(mec.Default())
	cfg.NH, cfg.NQ, cfg.Steps, cfg.MaxIters = 7, 31, 48, 30
	return cfg
}

var benchWorkload = engine.Workload{Requests: 10, Pop: 0.3, Timeliness: 2}

// Conservative (divergence-form) vs paper-literal advective FPK form inside
// the full equilibrium solve.
func BenchmarkAblationFPKForm(b *testing.B) {
	for _, form := range []struct {
		name string
		form pde.FPKForm
	}{{"conservative", pde.Conservative}, {"advective", pde.Advective}} {
		b.Run(form.name, func(b *testing.B) {
			cfg := quickSolver()
			cfg.FPKForm = form.form
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := engine.Solve(cfg, benchWorkload); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Damped vs undamped best-response iteration: the undamped variant is the
// literal Algorithm 2; damping trades per-iteration cost for robustness.
func BenchmarkAblationDamping(b *testing.B) {
	for _, damp := range []float64{1.0, 0.6, 0.3} {
		b.Run(fmt.Sprintf("gamma=%.1f", damp), func(b *testing.B) {
			cfg := quickSolver()
			cfg.Damping = damp
			var iters int
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				eq, err := engine.Solve(cfg, benchWorkload)
				if err != nil {
					b.Fatal(err)
				}
				iters = eq.Iterations
			}
			b.ReportMetric(float64(iters), "iterations")
		})
	}
}

// Mean-field vs exact pairwise interference in the market simulator.
func BenchmarkAblationInterference(b *testing.B) {
	for _, exact := range []bool{false, true} {
		name := "mean-field"
		if exact {
			name = "exact-SINR"
		}
		b.Run(name, func(b *testing.B) {
			p := mec.Default()
			p.M = 40
			p.K = 3
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cfg := sim.DefaultConfig(p, policy.NewMPC())
				cfg.Epochs = 1
				cfg.StepsPerEpoch = 20
				cfg.ExactInterference = exact
				if _, err := sim.Run(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Grid-resolution scaling of the coupled solve (the implicit split scheme is
// unconditionally stable, so the time step need not shrink with the grid).
func BenchmarkAblationGridResolution(b *testing.B) {
	for _, nq := range []int{21, 41, 81} {
		b.Run(fmt.Sprintf("NQ=%d", nq), func(b *testing.B) {
			cfg := quickSolver()
			cfg.NQ = nq
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := engine.Solve(cfg, benchWorkload); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Telemetry overhead on the full coupled solve: "off" runs with the implicit
// no-op recorder (the default), "nop" injects obs.Nop explicitly, "registry"
// records live metrics. off ≈ nop bounds the instrumentation cost of the
// disabled path (<2% required); registry bounds the cost of recording.
func BenchmarkAblationRecorder(b *testing.B) {
	for _, variant := range []struct {
		name string
		rec  obs.Recorder
	}{{"off", nil}, {"nop", obs.Nop}, {"registry", obs.NewRegistry(nil)}} {
		b.Run(variant.name, func(b *testing.B) {
			cfg := quickSolver()
			cfg.Obs = variant.rec
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := engine.Solve(cfg, benchWorkload); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Micro-benchmarks of the numerical kernels -------------------------------

func BenchmarkTridiagSolve(b *testing.B) {
	const n = 256
	tri := linalg.NewTridiag(n)
	for i := 0; i < n; i++ {
		if i > 0 {
			tri.A[i] = -1
		}
		if i < n-1 {
			tri.C[i] = -1
		}
		tri.B[i] = 4
	}
	rhs := linalg.NewVector(n)
	for i := range rhs {
		rhs[i] = float64(i % 7)
	}
	dst := linalg.NewVector(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tri.Solve(dst, rhs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHJBSolve(b *testing.B) {
	g, err := grid.NewGrid2D(
		grid.Axis{Min: 1, Max: 10, N: 9},
		grid.Axis{Min: 0, Max: 100, N: 41},
	)
	if err != nil {
		b.Fatal(err)
	}
	tm, err := grid.NewTimeMesh(1, 60)
	if err != nil {
		b.Fatal(err)
	}
	params := mec.Default()
	prob := &pde.HJBProblem{
		Grid:   g,
		Time:   tm,
		DiffH:  0.125,
		DiffQ:  50,
		DriftH: func(_, h float64) float64 { return 5 - h },
		DriftQ: func(_ int, x, b []float64) {
			for k, v := range x {
				b[k] = -100 * v
			}
		},
		Control: func(_ int, dVdq, x []float64) {
			for k, dV := range dVdq {
				x[k] = mfgcp.OptimalControl(params, dV)
			}
		},
		Running: func(_ int, x, u []float64) {
			for k := range u {
				_, j := g.Coords(k)
				u[k] = 10 - x[k]*x[k] - 0.01*g.Q.At(j)
			}
		},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pde.SolveHJB(prob); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFPKSolve(b *testing.B) {
	g, err := grid.NewGrid2D(
		grid.Axis{Min: 1, Max: 10, N: 9},
		grid.Axis{Min: 0, Max: 100, N: 41},
	)
	if err != nil {
		b.Fatal(err)
	}
	tm, err := grid.NewTimeMesh(1, 60)
	if err != nil {
		b.Fatal(err)
	}
	init, err := pde.GaussianDensity(g, 5, 1, 70, 10)
	if err != nil {
		b.Fatal(err)
	}
	prob := &pde.FPKProblem{
		Grid:   g,
		Time:   tm,
		DiffH:  0.125,
		DiffQ:  50,
		DriftH: func(_, h float64) float64 { return 5 - h },
		DriftQ: func(_ int, b []float64) {
			for k := range b {
				_, j := g.Coords(k)
				b[k] = -0.5 * (g.Q.At(j) - 40)
			}
		},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pde.SolveFPK(prob, init); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEquilibriumSolve(b *testing.B) {
	cfg := quickSolver()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.Solve(cfg, benchWorkload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMarketEpoch(b *testing.B) {
	p := mec.Default()
	p.M = 50
	p.K = 4
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := sim.DefaultConfig(p, policy.NewRR())
		cfg.Epochs = 1
		cfg.StepsPerEpoch = 30
		if _, err := sim.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRolloutEnsemble(b *testing.B) {
	eq, err := engine.Solve(quickSolver(), benchWorkload)
	if err != nil {
		b.Fatal(err)
	}
	p := mec.Default()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eq.EnsembleRollout(p.ChMean, 70, int64(i), 16); err != nil {
			b.Fatal(err)
		}
	}
}

// Implicit vs explicit time stepping inside the full equilibrium solve. The
// explicit integrator skips the tridiagonal solves but must respect the CFL
// bound (the quick solver's mesh satisfies it).
func BenchmarkAblationScheme(b *testing.B) {
	for _, scheme := range []string{"implicit", "explicit"} {
		b.Run(scheme, func(b *testing.B) {
			cfg := quickSolver()
			cfg.Scheme = scheme
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := engine.Solve(cfg, benchWorkload); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Finite-M exact game vs the mean-field solve: the per-round cost of the
// original game grows linearly in M (O(M·K·ψ)) while MFG-CP is flat — the
// scalability argument behind Fig. 2 and Table II.
func BenchmarkExactGameVsMFG(b *testing.B) {
	w := engine.Workload{Requests: 10, Pop: 0.3, Timeliness: 2}
	cfg := exactgame.DefaultConfig(mec.Default())
	cfg.NH, cfg.NQ, cfg.Steps = 5, 21, 30
	for _, m := range []int{4, 8, 16} {
		b.Run(fmt.Sprintf("exact/M=%d", m), func(b *testing.B) {
			inits := make([]exactgame.AgentInit, m)
			for i := range inits {
				inits[i] = exactgame.AgentInit{MeanQ: 70, StdQ: 10}
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := exactgame.Solve(cfg, w, inits); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("mean-field", func(b *testing.B) {
		mcfg := engine.DefaultConfig(mec.Default())
		mcfg.NH, mcfg.NQ, mcfg.Steps = 5, 21, 30
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := engine.Solve(mcfg, w); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// Knapsack allocators for the capacity-constrained extension (the paper's
// Section IV-C Remark).
func BenchmarkKnapsackAllocators(b *testing.B) {
	items := make([]policy.KnapsackItem, 50)
	for i := range items {
		items[i] = policy.KnapsackItem{Content: i, Weight: 1 + float64(i%17), Value: float64((i*31)%97) + 1}
	}
	b.Run("fractional", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := policy.AllocateFractional(items, 200); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("zero-one-dp", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := policy.Allocate01(items, 200, 2000); err != nil {
				b.Fatal(err)
			}
		}
	})
}
