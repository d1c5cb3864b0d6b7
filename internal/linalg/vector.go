// Package linalg provides the small dense and banded linear-algebra kernels
// used by the finite-difference PDE solvers: vectors, dense matrices with LU
// factorisation (used mostly to cross-check the banded solvers in tests), and
// a tridiagonal Thomas solver that carries the per-time-step implicit solves
// of the HJB and FPK schemes.
//
// Everything is written against plain []float64 so the hot paths allocate
// nothing once buffers are reused.
package linalg

import "errors"

// ErrDimensionMismatch is returned when two operands have incompatible sizes.
var ErrDimensionMismatch = errors.New("linalg: dimension mismatch")

// Vector is a dense float64 vector. The zero value is an empty vector.
type Vector []float64

// NewVector returns a zeroed vector of length n.
func NewVector(n int) Vector { return make(Vector, n) }

// Clone returns an independent copy of v.
func (v Vector) Clone() Vector {
	out := make(Vector, len(v))
	copy(out, v)
	return out
}

// Fill sets every element of v to x.
func (v Vector) Fill(x float64) {
	for i := range v {
		v[i] = x
	}
}
