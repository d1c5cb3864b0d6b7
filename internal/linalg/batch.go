package linalg

import (
	"fmt"
)

// TridiagBatch is an n×n tridiagonal system factorised once and substituted
// against many right-hand sides. It is the kernel of the implicit h-phase of
// the operator-split PDE sweeps: every h-line of one sweep solves the same
// coefficient set, so the O(n) Thomas elimination runs once per sweep instead
// of once per line, and the interleaved substitution walks the flattened
// field with unit stride. Lines with coefficients of their own, such as the
// q-lines, cannot share a factorisation; the PDE layer solves those in its
// own lock-step sweep, which builds each row as it eliminates it.
//
// The type parameter admits only float64 (see Float). Usage: fill A, B and C
// (same layout as Tridiag: A[0] and C[n-1] ignored), call Factorize, then any
// number of SolveInterleaved calls. Writing to the diagonals does not
// invalidate the factorisation automatically — callers re-run Factorize
// after changing coefficients.
type TridiagBatch[T Float] struct {
	// A, B, C are the sub-, main- and super-diagonal, each of length n.
	A, B, C []T

	cp, beta []T // factorisation: normalised super-diagonal and pivots
	factored bool
}

// NewTridiagBatch allocates an n×n batched tridiagonal system with zeroed
// diagonals.
func NewTridiagBatch[T Float](n int) *TridiagBatch[T] {
	return &TridiagBatch[T]{
		A:    make([]T, n),
		B:    make([]T, n),
		C:    make([]T, n),
		cp:   make([]T, n),
		beta: make([]T, n),
	}
}

// N returns the dimension of the system.
func (t *TridiagBatch[T]) N() int { return len(t.B) }

// Factorize runs the Thomas forward elimination over the current diagonals,
// storing the pivots for reuse by SolveInterleaved. A vanishing pivot returns
// ErrSingular and leaves the system unfactorised.
func (t *TridiagBatch[T]) Factorize() error {
	t.factored = false
	if row := thomasFactor(t.A, t.B, t.C, t.cp, t.beta); row >= 0 {
		return fmt.Errorf("%w: zero pivot at row %d", ErrSingular, row)
	}
	t.factored = true
	return nil
}

// SolveInterleaved substitutes m interleaved right-hand sides through the
// stored factorisation, in place on x: x[i*m+j] is component i of system j,
// so a flattened row-major 2-D field swept along its first dimension is
// solved directly, with no gather or scatter. len(x) must be N()*m. The
// per-system arithmetic is identical to a scalar Tridiag.Solve, so the
// results are bit-identical to m scalar solves.
func (t *TridiagBatch[T]) SolveInterleaved(x []T, m int) error {
	n := t.N()
	if !t.factored {
		return fmt.Errorf("linalg: TridiagBatch.SolveInterleaved before Factorize")
	}
	if m < 0 || len(x) != n*m {
		return fmt.Errorf("%w: system %d × batch %d, field %d", ErrDimensionMismatch, n, m, len(x))
	}
	thomasSolveInterleaved(t.A, t.cp, t.beta, x, m)
	return nil
}
