package pde

import (
	"testing"

	"repro/internal/grid"
	"repro/internal/obs"
)

// Benchmarks bounding the telemetry cost inside the solver hot loops. The
// no-op path adds two counter increments and one Enabled() branch per time
// step (clock reads are skipped entirely), which must stay under 2% of a
// solve; compare
//
//	go test ./internal/pde -bench 'SolveHJBObs|SolveFPKObs' -count 10
//
// sub-benchmark "nop" (instrumented, recorder off — the default for every
// library user) against "registry" (live metrics).

func benchHJBProblem(b *testing.B, rec obs.Recorder) *HJBProblem {
	b.Helper()
	h, err := grid.NewAxis(0.5, 1.5, 13)
	if err != nil {
		b.Fatal(err)
	}
	q, err := grid.NewAxis(0, 70, 61)
	if err != nil {
		b.Fatal(err)
	}
	g, err := grid.NewGrid2D(h, q)
	if err != nil {
		b.Fatal(err)
	}
	tm, err := grid.NewTimeMesh(1, 120)
	if err != nil {
		b.Fatal(err)
	}
	return &HJBProblem{
		Grid:    g,
		Time:    tm,
		DiffH:   0.02,
		DiffQ:   0.5,
		DriftH:  func(_, h float64) float64 { return 0.25 * (1 - h) },
		DriftQ:  pointwise(func(x float64) float64 { return -20 * x }),
		Control: pointwise(func(dVdq float64) float64 { return 0.5 - 0.1*dVdq }),
		Running: running(g, func(h, q, x float64) float64 { return h*q - x*x }),
		Obs:     rec,
	}
}

func benchmarkSolveHJB(b *testing.B, rec obs.Recorder) {
	p := benchHJBProblem(b, rec)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolveHJB(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolveHJBObs(b *testing.B) {
	b.Run("nop", func(b *testing.B) { benchmarkSolveHJB(b, nil) })
	b.Run("registry", func(b *testing.B) { benchmarkSolveHJB(b, obs.NewRegistry(nil)) })
}

func benchmarkSolveFPK(b *testing.B, rec obs.Recorder) {
	hp := benchHJBProblem(b, rec)
	p := &FPKProblem{
		Grid:        hp.Grid,
		Time:        hp.Time,
		DiffH:       hp.DiffH,
		DiffQ:       hp.DiffQ,
		DriftH:      hp.DriftH,
		DriftQ:      drift(hp.Grid, func(_, q float64) float64 { return -0.1 * q }),
		Renormalize: true,
		Obs:         rec,
	}
	lambda0, err := GaussianDensity(hp.Grid, 1, 0.2, 35, 7)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolveFPK(p, lambda0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolveFPKObs(b *testing.B) {
	b.Run("nop", func(b *testing.B) { benchmarkSolveFPK(b, nil) })
	b.Run("registry", func(b *testing.B) { benchmarkSolveFPK(b, obs.NewRegistry(nil)) })
}
