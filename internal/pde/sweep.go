// Package pde implements the finite-difference solvers for the two coupled
// partial differential equations at the core of MFG-CP:
//
//   - the backward Hamilton–Jacobi–Bellman equation (Eq. 20) giving the
//     generic EDP's value function and, via Theorem 1, its optimal caching
//     strategy;
//   - the forward Fokker–Planck–Kolmogorov equation (Eq. 15) transporting the
//     mean-field distribution of EDP states.
//
// Both are solved with unconditionally stable operator splitting (Lie
// splitting over the h- and q-dimensions), implicit upwind advection and
// implicit diffusion, so every 1-D sweep is a single tridiagonal solve. The
// schemes are monotone (M-matrix structure), which gives the HJB solver a
// discrete maximum principle and keeps the FPK density non-negative. The FPK
// default uses the conservative divergence form, which conserves probability
// mass exactly with reflecting (zero-flux) boundaries; the paper-literal
// advective form of Eq. (15) is available as an ablation.
//
// The model reaches the solvers one time level at a time. HJBProblem's
// Control, Running and DriftQ and FPKProblem's DriftQ each run once per
// level of a solve and fill a whole field of that level, flattened like
// grid.Grid2D, so the model side evaluates what is constant along a level
// once instead of being called at every node. The solver clamps the control
// field, forms the explicit source, and assembles every q-line from the
// level's drift field, which the Workspace holds.
//
// The sweeps run on one serial float64 kernel: within one h-sweep every grid
// line shares its coefficient set, so the tridiagonal system is factorised
// once and all lines are substituted through it in place; q-lines have
// line-dependent coefficients, so one fused sweep per operator builds each
// row of every q-line from the drift field as it reaches it and solves all
// lines in lock-step, row by row, on the field itself (qsweep.go). Both
// kernels keep the per-line arithmetic of the scalar Thomas algorithm
// exactly, so they are bit-identical to solving each line on its own.
package pde

import "fmt"

// sweeper owns the reusable line buffers of the explicit 1-D updates of
// length n; the line's drifts come from the workspace's drift buffers.
type sweeper struct {
	n    int
	rhs  []float64
	sol  []float64
	flux []float64 // explicit conservative face fluxes, len n+1
}

func newSweeper(n int) *sweeper {
	return &sweeper{
		n:    n,
		rhs:  make([]float64, n),
		sol:  make([]float64, n),
		flux: make([]float64, n+1),
	}
}

// posPart and negPart are max(x, 0) and min(x, 0). They differ from
// math.Max/math.Min only in the sign of a zero result, which the downstream
// subtraction erases for the non-degenerate diffusions the schemes assemble.
func posPart(x float64) float64 {
	if x > 0 {
		return x
	}
	return 0
}

func negPart(x float64) float64 {
	if x < 0 {
		return x
	}
	return 0
}

// gather and scatter copy the n-node line of field starting at start with
// the given stride into and out of a contiguous line buffer.
func gather(dst, field []float64, start, stride, n int) {
	for i := 0; i < n; i++ {
		dst[i] = field[start+i*stride]
	}
}

func scatter(field, src []float64, start, stride, n int) {
	for i := 0; i < n; i++ {
		field[start+i*stride] = src[i]
	}
}

// The implicit operators are assembled row by row from three small row
// helpers, one per operator: each turns a row's drifts into the weights that
// row's A, B and C entries are formed from. The h-phase assembly below and
// the fused q-sweeps (qsweep.go) build every row through them, so the two
// phases evaluate one set of expressions in one order. Each helper is kept
// within the inliner's budget: a helper the compiler does not inline turns
// every row of a q-sweep into a call.

// backwardWeights returns the off-diagonal weights of L v = b·∂v + D·∂²v at
// i−1 and i+1 for the nodal drift bi: upwind advection (forward difference
// for b ≥ 0, backward otherwise) plus the diffusion dd = D/dx² on both.
func backwardWeights(bi, dx, dd float64) (lo, up float64) {
	if bi >= 0 {
		up += bi / dx
	} else {
		lo += -bi / dx
	}
	lo += dd
	up += dd
	return lo, up
}

// advectiveWeights returns the off-diagonal weights of b·∂ − D·∂² at i−1 and
// i+1 for the nodal drift bi, both ≤ 0: upwind advection (backward
// difference for b ≥ 0, which keeps the scheme monotone) minus the diffusion
// dd = D/dx².
func advectiveWeights(bi, dx, dd float64) (lo, up float64) {
	if bi >= 0 {
		lo += -bi / dx
	} else {
		up += bi / dx
	}
	lo -= dd
	up -= dd
	return lo, up
}

// upperFace and lowerFace return what the conservative flux through the face
// i+1/2 (interface drift bf) and the face i−1/2 add to row i: r = dt/dx times
// the upwind drift plus the diffusion dd = D/dx on the diagonal, and on the
// super- or sub-diagonal respectively.
func upperFace(bf, r, dd float64) (diag, up float64) {
	return r * (posPart(bf) + dd), r * (negPart(bf) - dd)
}

func lowerFace(bf, r, dd float64) (diag, lo float64) {
	return r * (-negPart(bf) + dd), r * (-posPart(bf) - dd)
}

// assembleBackwardValue assembles the implicit backward (HJB) operator
//
//	(I − dt·L) v_new = v_old,   L v = b(x)·∂v + D·∂²v
//
// with upwind advection and homogeneous Neumann boundaries (∂v/∂n = 0) into
// the diagonals (A, B, C) from the nodal drifts b. The matrix is an M-matrix
// with unit row sums minus the off-diagonal mass, hence diagonally dominant.
func assembleBackwardValue(A, B, C, b []float64, dt, dx, diff float64) {
	n := len(b)
	dd := diff / (dx * dx) // D/dx²
	for i := 0; i < n; i++ {
		lo, up := backwardWeights(b[i], dx, dd)
		// Neumann boundaries fold the ghost node into the diagonal: the
		// ghost value equals the boundary value, so the off-diagonal weight
		// moves onto the diagonal, cancelling there.
		switch i {
		case 0:
			A[i] = 0
			B[i] = 1 + dt*up
			C[i] = -dt * up
		case n - 1:
			A[i] = -dt * lo
			B[i] = 1 + dt*lo
			C[i] = 0
		default:
			A[i] = -dt * lo
			B[i] = 1 + dt*(lo+up)
			C[i] = -dt * up
		}
	}
}

// assembleForwardConservative assembles the implicit forward FPK operator in
// conservative (divergence) form with zero-flux boundaries:
//
//	(I + dt·div F) λ_new = λ_old,
//	F_{i+1/2} = b⁺_{i+1/2} λ_i + b⁻_{i+1/2} λ_{i+1} − D (λ_{i+1}−λ_i)/dx.
//
// Interface drifts are arithmetic means of the nodal drifts b. The matrix has
// unit column sums, so Σλ is conserved to round-off, and it is an M-matrix,
// so positivity is preserved.
func assembleForwardConservative(A, B, C, b []float64, dt, dx, diff float64) {
	n := len(b)
	r := dt / dx
	dd := diff / dx // D/dx (flux units)
	for i := 0; i < n; i++ {
		diag := 1.0
		var lo, up float64
		if i < n-1 { // flux through the upper face exists
			d, u := upperFace(0.5*(b[i]+b[i+1]), r, dd)
			diag += d
			up = u
		}
		if i > 0 { // flux through the lower face exists
			d, l := lowerFace(0.5*(b[i-1]+b[i]), r, dd)
			diag += d
			lo = l
		}
		A[i] = lo
		B[i] = diag
		C[i] = up
	}
}

// assembleForwardAdvective assembles the implicit paper-literal
// non-conservative FPK operator of Eq. (15):
//
//	(I + dt·(b·∂ − D·∂²)) λ_new = λ_old
//
// with upwind advection and Neumann boundaries. This form does not conserve
// mass when the drift varies in space (the missing λ·∂b term); the FPK
// solver optionally renormalises and reports the raw drift.
func assembleForwardAdvective(A, B, C, b []float64, dt, dx, diff float64) {
	n := len(b)
	dd := diff / (dx * dx)
	for i := 0; i < n; i++ {
		lo, up := advectiveWeights(b[i], dx, dd)
		switch i {
		case 0:
			A[i] = 0
			B[i] = 1 - dt*up
			C[i] = dt * up
		case n - 1:
			A[i] = dt * lo
			B[i] = 1 - dt*lo
			C[i] = 0
		default:
			A[i] = dt * lo
			B[i] = 1 - dt*(lo+up)
			C[i] = dt * up
		}
	}
}

// operator selects which implicit operator a sweep phase assembles.
type operator int

const (
	opBackwardValue operator = iota
	opForwardConservative
	opForwardAdvective
)

// assemble assembles the selected operator from the nodal drifts b into the
// diagonals (A, B, C).
func assemble(op operator, A, B, C, b []float64, dt, dx, diff float64) {
	switch op {
	case opBackwardValue:
		assembleBackwardValue(A, B, C, b, dt, dx, diff)
	case opForwardConservative:
		assembleForwardConservative(A, B, C, b, dt, dx, diff)
	default:
		assembleForwardAdvective(A, B, C, b, dt, dx, diff)
	}
}

func checkField(name string, field []float64, want int) error {
	if len(field) != want {
		return fmt.Errorf("pde: %s has %d nodes, grid has %d", name, len(field), want)
	}
	return nil
}
