package verify

import (
	"fmt"
	"math"

	"repro/internal/grid"
	"repro/internal/numerics"
	"repro/internal/pde"
)

// Temporal-order estimation: solve a fixed smooth synthetic problem on the
// model's physical domain at time resolutions S, 2S and 4S on one spatial
// grid, and estimate the observed convergence order from the successive
// differences (Richardson style, no exact solution needed):
//
//	order ≈ log2( ‖u_S − u_2S‖ / ‖u_2S − u_4S‖ )
//
// For a scheme of nominal order p both differences shrink by 2^p per
// refinement, so the estimate must stay above p − OrderSlack. The synthetic
// drifts and utilities are smooth and keep the explicit scheme inside its
// CFL bound at every resolution used.

// orderGrid is the fixed spatial grid of the refinement study: the model's
// physical domain (h ∈ [1,10], q ∈ [0,100]) at a resolution where spatial
// error is frozen across the three time resolutions.
func orderGrid() (grid.Grid2D, error) {
	hAxis, err := grid.NewAxis(1, 10, 9)
	if err != nil {
		return grid.Grid2D{}, err
	}
	qAxis, err := grid.NewAxis(0, 100, 17)
	if err != nil {
		return grid.Grid2D{}, err
	}
	return grid.NewGrid2D(hAxis, qAxis)
}

// observedOrder turns the two successive refinement differences into an
// order estimate, guarding the round-off floor (when both differences are
// at noise level the scheme is exact on the problem and the check passes).
func observedOrder(oracle string, d1, d2, nominal, slack float64) []Violation {
	const noiseFloor = 1e-12
	if math.IsNaN(d1) || math.IsNaN(d2) {
		return []Violation{violationf(oracle, math.NaN(), 0, "refinement differences are NaN")}
	}
	if d1 < noiseFloor && d2 < noiseFloor {
		return nil
	}
	if d2 <= 0 || d1 <= d2 {
		return []Violation{violationf(oracle, d1/math.Max(d2, noiseFloor), 2,
			"refinement differences do not decrease: %.3g then %.3g", d1, d2)}
	}
	order := math.Log2(d1 / d2)
	if order < nominal-slack {
		return []Violation{violationf(oracle, order, nominal-slack,
			"observed temporal order %.2f below nominal %g − slack %g", order, nominal, slack)}
	}
	return nil
}

// TemporalOrderFPK estimates the observed temporal order of the named
// scheme on a smooth forward (FPK) transport problem and checks it against
// the scheme's nominal order.
func TemporalOrderFPK(schemeName string, baseSteps int, tol Tolerances) ([]Violation, error) {
	sch, err := pde.ParseScheme(schemeName)
	if err != nil {
		return nil, err
	}
	g, err := orderGrid()
	if err != nil {
		return nil, err
	}
	lambda0, err := pde.GaussianDensity(g, 5, 1.5, 70, 10)
	if err != nil {
		return nil, err
	}
	solve := func(steps int) ([]float64, error) {
		tm, err := grid.NewTimeMesh(1, steps)
		if err != nil {
			return nil, err
		}
		p := &pde.FPKProblem{
			Grid:  g,
			Time:  tm,
			DiffH: 0.125,
			DiffQ: 50,
			// Smooth, time-dependent drifts on the physical scales: an OU
			// pull in h and a contracting, slowly accelerating drift in q.
			DriftH: func(_, h float64) float64 { return 1.0 * (5 - h) },
			DriftQ: func(n int, b []float64) {
				t := tm.At(n)
				for k := range b {
					_, j := g.Coords(k)
					b[k] = -6 + 2*t - 0.03*g.Q.At(j)
				}
			},
			Form:        pde.Conservative,
			Scheme:      sch,
			Renormalize: true,
		}
		sol, err := pde.SolveFPK(p, lambda0)
		if err != nil {
			return nil, err
		}
		return sol.Lambda[steps], nil
	}

	var finals [3][]float64
	for i, steps := range []int{baseSteps, 2 * baseSteps, 4 * baseSteps} {
		if finals[i], err = solve(steps); err != nil {
			return nil, fmt.Errorf("verify: FPK order solve at %d steps: %w", steps, err)
		}
	}
	d1, err := numerics.L1Distance(finals[0], finals[1], g.CellArea())
	if err != nil {
		return nil, err
	}
	d2, err := numerics.L1Distance(finals[1], finals[2], g.CellArea())
	if err != nil {
		return nil, err
	}
	oracle := "order-fpk-" + sch.String()
	return observedOrder(oracle, d1, d2, float64(sch.Order()), tol.OrderSlack), nil
}

// TemporalOrderHJB estimates the observed temporal order of the named
// scheme on a smooth backward (HJB) problem with an interior (unclamped)
// control feedback, and checks it against the scheme's nominal order. The
// error is measured on the value function at t = 0 in the sup norm.
func TemporalOrderHJB(schemeName string, baseSteps int, tol Tolerances) ([]Violation, error) {
	sch, err := pde.ParseScheme(schemeName)
	if err != nil {
		return nil, err
	}
	g, err := orderGrid()
	if err != nil {
		return nil, err
	}
	solve := func(steps int) ([]float64, error) {
		tm, err := grid.NewTimeMesh(1, steps)
		if err != nil {
			return nil, err
		}
		p := &pde.HJBProblem{
			Grid:   g,
			Time:   tm,
			DiffH:  0.125,
			DiffQ:  50,
			DriftH: func(_, h float64) float64 { return 1.0 * (5 - h) },
			DriftQ: func(_ int, x, b []float64) {
				for k, v := range x {
					b[k] = -3 - 2*v
				}
			},
			// Mild feedback keeps the control interior, so the synthetic
			// solution stays smooth (no clamp kinks to pollute the order).
			Control: func(_ int, dVdq, x []float64) {
				for k, d := range dVdq {
					x[k] = 0.5 + 0.01*d
				}
			},
			Running: func(_ int, x, u []float64) {
				for k := range u {
					i, j := g.Coords(k)
					u[k] = 0.1*g.H.At(i) + 0.002*g.Q.At(j) + 0.2*x[k]
				}
			},
			Scheme: sch,
		}
		sol, err := pde.SolveHJB(p)
		if err != nil {
			return nil, err
		}
		return sol.V[0], nil
	}

	var finals [3][]float64
	for i, steps := range []int{baseSteps, 2 * baseSteps, 4 * baseSteps} {
		if finals[i], err = solve(steps); err != nil {
			return nil, fmt.Errorf("verify: HJB order solve at %d steps: %w", steps, err)
		}
	}
	sup := func(a, b []float64) float64 {
		var worst float64
		for k := range a {
			if d := math.Abs(a[k] - b[k]); d > worst {
				worst = d
			}
		}
		return worst
	}
	d1 := sup(finals[0], finals[1])
	d2 := sup(finals[1], finals[2])
	oracle := "order-hjb-" + sch.String()
	return observedOrder(oracle, d1, d2, float64(sch.Order()), tol.OrderSlack), nil
}
