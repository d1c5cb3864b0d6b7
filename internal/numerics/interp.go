// Package numerics collects the scalar numerical utilities shared by the
// MFG-CP solvers: interpolation on grids, quadrature, the logistic smooth
// step used for the service-case probabilities, probability distributions
// (normal, Zipf), descriptive statistics and histograms.
package numerics

import (
	"fmt"

	"repro/internal/grid"
)

// InterpBilinear bilinearly interpolates a flattened 2-D field at (h, q),
// clamping both coordinates to the grid.
func InterpBilinear(g grid.Grid2D, field []float64, h, q float64) (float64, error) {
	if len(field) != g.Size() {
		return 0, fmt.Errorf("numerics: InterpBilinear: %d values for %d nodes", len(field), g.Size())
	}
	i, fh := g.H.Locate(h)
	j, fq := g.Q.Locate(q)
	v00 := field[g.Idx(i, j)]
	v01 := field[g.Idx(i, j+1)]
	v10 := field[g.Idx(i+1, j)]
	v11 := field[g.Idx(i+1, j+1)]
	return v00*(1-fh)*(1-fq) + v01*(1-fh)*fq + v10*fh*(1-fq) + v11*fh*fq, nil
}

// LocateNodes brackets x in a strictly increasing node slice: it returns the
// left node index i and the fractional offset f ∈ [0,1] such that x ≈
// nodes[i]·(1−f) + nodes[i+1]·f, clamping x to the node range. A single-node
// (degenerate) axis always locates at (0, 0). The nodes need not be uniform,
// which is what separates this from grid.Axis.Locate.
func LocateNodes(nodes []float64, x float64) (int, float64, error) {
	switch {
	case len(nodes) == 0:
		return 0, 0, fmt.Errorf("numerics: LocateNodes: empty node slice")
	case len(nodes) == 1:
		return 0, 0, nil
	}
	if x <= nodes[0] {
		return 0, 0, nil
	}
	if last := len(nodes) - 1; x >= nodes[last] {
		return last - 1, 1, nil
	}
	// Binary search for the last node ≤ x.
	lo, hi := 0, len(nodes)-1
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if nodes[mid] <= x {
			lo = mid
		} else {
			hi = mid
		}
	}
	f := (x - nodes[lo]) / (nodes[lo+1] - nodes[lo])
	return lo, f, nil
}

// InterpMultilinear interpolates a row-major nodal field over an arbitrary
// number of strictly increasing (possibly non-uniform) axes at the point x,
// clamping each coordinate to its axis range. Degenerate single-node axes are
// allowed and contribute no interpolation weight, so a 3-D table with one
// frozen dimension evaluates as a bilinear interpolant. vals must hold
// ∏ len(axes[k]) values with the last axis varying fastest.
func InterpMultilinear(axes [][]float64, vals []float64, x []float64) (float64, error) {
	if len(axes) == 0 || len(axes) != len(x) {
		return 0, fmt.Errorf("numerics: InterpMultilinear: %d axes for %d coordinates", len(axes), len(x))
	}
	size := 1
	for _, ax := range axes {
		if len(ax) == 0 {
			return 0, fmt.Errorf("numerics: InterpMultilinear: empty axis")
		}
		size *= len(ax)
	}
	if len(vals) != size {
		return 0, fmt.Errorf("numerics: InterpMultilinear: %d values for %d nodes", len(vals), size)
	}
	// Per-axis bracketing interval and fraction.
	idx := make([]int, len(axes))
	frac := make([]float64, len(axes))
	for k, ax := range axes {
		i, f, err := LocateNodes(ax, x[k])
		if err != nil {
			return 0, err
		}
		idx[k], frac[k] = i, f
	}
	// Accumulate the 2^d corner contributions (weight-0 corners skipped, so
	// degenerate axes never index out of range).
	var out float64
	for corner := 0; corner < 1<<len(axes); corner++ {
		w := 1.0
		flat := 0
		for k, ax := range axes {
			bit := (corner >> k) & 1
			if bit == 1 {
				w *= frac[k]
			} else {
				w *= 1 - frac[k]
			}
			if w == 0 {
				break
			}
			flat = flat*len(ax) + idx[k] + bit
		}
		if w == 0 {
			continue
		}
		out += w * vals[flat]
	}
	return out, nil
}

// GradientQ computes the central-difference partial derivative ∂field/∂q at
// every node of the grid, with one-sided differences on the q boundaries.
// This is the estimator of ∂qV used by the closed-form optimal control
// (Theorem 1, Eq. 21). dst must have length g.Size(); it may alias field only
// if a corrupted result is acceptable, so callers pass a separate buffer.
func GradientQ(g grid.Grid2D, dst, field []float64) error {
	if len(field) != g.Size() || len(dst) != g.Size() {
		return fmt.Errorf("numerics: GradientQ: field %d, dst %d, grid %d", len(field), len(dst), g.Size())
	}
	dq := g.Q.Step()
	nq := g.Q.N
	for i := 0; i < g.H.N; i++ {
		row := i * nq
		dst[row] = (field[row+1] - field[row]) / dq
		for j := 1; j < nq-1; j++ {
			dst[row+j] = (field[row+j+1] - field[row+j-1]) / (2 * dq)
		}
		dst[row+nq-1] = (field[row+nq-1] - field[row+nq-2]) / dq
	}
	return nil
}
