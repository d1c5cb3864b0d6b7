package numerics

import (
	"fmt"

	"repro/internal/grid"
)

// Trapezoid integrates nodal values over a uniform axis with the composite
// trapezoid rule.
func Trapezoid(ax grid.Axis, vals []float64) (float64, error) {
	if len(vals) != ax.N {
		return 0, fmt.Errorf("numerics: Trapezoid: %d values for %d nodes", len(vals), ax.N)
	}
	dx := ax.Step()
	s := 0.5 * (vals[0] + vals[ax.N-1])
	for i := 1; i < ax.N-1; i++ {
		s += vals[i]
	}
	return s * dx, nil
}

// Integral2D integrates a flattened field over the full 2-D grid using the
// tensor-product trapezoid rule. This is the ∫∫ · dh dq appearing throughout
// the mean-field estimator (Eqs. 14, 17, 18).
func Integral2D(g grid.Grid2D, field []float64) (float64, error) {
	if len(field) != g.Size() {
		return 0, fmt.Errorf("numerics: Integral2D: %d values for %d nodes", len(field), g.Size())
	}
	var s float64
	nh, nq := g.H.N, g.Q.N
	for i := 0; i < nh; i++ {
		wi := 1.0
		if i == 0 || i == nh-1 {
			wi = 0.5
		}
		row := i * nq
		var rs float64
		rs += 0.5 * (field[row] + field[row+nq-1])
		for j := 1; j < nq-1; j++ {
			rs += field[row+j]
		}
		s += wi * rs
	}
	return s * g.CellArea(), nil
}

// WeightedIntegral2D integrates w(i,j)*field(i,j) over the grid where the
// weight is supplied per node via fn(i, j, h, q). It powers the mean-field
// moments: E[x*], E[q], and the conditional masses over {q ≤ αQ}.
func WeightedIntegral2D(g grid.Grid2D, field []float64, fn func(i, j int, h, q float64) float64) (float64, error) {
	if len(field) != g.Size() {
		return 0, fmt.Errorf("numerics: WeightedIntegral2D: %d values for %d nodes", len(field), g.Size())
	}
	var s float64
	nh, nq := g.H.N, g.Q.N
	for i := 0; i < nh; i++ {
		wi := 1.0
		if i == 0 || i == nh-1 {
			wi = 0.5
		}
		h := g.H.At(i)
		row := i * nq
		for j := 0; j < nq; j++ {
			wj := 1.0
			if j == 0 || j == nq-1 {
				wj = 0.5
			}
			s += wi * wj * field[row+j] * fn(i, j, h, g.Q.At(j))
		}
	}
	return s * g.CellArea(), nil
}

// MarginalQ integrates the 2-D density over h, producing the 1-D marginal in
// q. This is what Figs. 4, 6 and 7 of the paper plot. dst must have length
// g.Q.N.
func MarginalQ(g grid.Grid2D, dst, field []float64) error {
	if len(field) != g.Size() {
		return fmt.Errorf("numerics: MarginalQ: %d values for %d nodes", len(field), g.Size())
	}
	if len(dst) != g.Q.N {
		return fmt.Errorf("numerics: MarginalQ: dst %d for %d q-nodes", len(dst), g.Q.N)
	}
	dh := g.H.Step()
	nh, nq := g.H.N, g.Q.N
	for j := 0; j < nq; j++ {
		var s float64
		s += 0.5 * (field[j] + field[(nh-1)*nq+j])
		for i := 1; i < nh-1; i++ {
			s += field[i*nq+j]
		}
		dst[j] = s * dh
	}
	return nil
}
