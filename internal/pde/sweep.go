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
// line-dependent coefficients, so every q-line of a sweep is assembled into
// one interleaved set of systems and all of them are solved in lock-step,
// row by row. Both kernels keep the per-line arithmetic of the scalar Thomas
// algorithm exactly, so they are bit-identical to solving each line on its
// own.
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

// assembleBackwardValue assembles the implicit backward (HJB) operator
//
//	(I − dt·L) v_new = v_old,   L v = b(x)·∂v + D·∂²v
//
// with upwind advection and homogeneous Neumann boundaries (∂v/∂n = 0) into
// the diagonals (A, B, C) from the nodal drifts b; row i lands at i·stride.
// The matrix is an M-matrix with unit row sums minus the off-diagonal mass,
// hence diagonally dominant.
func assembleBackwardValue(A, B, C []float64, stride int, b []float64, dt, dx, diff float64) {
	n := len(b)
	dd := diff / (dx * dx) // D/dx²
	for i := 0; i < n; i++ {
		k := i * stride
		bi := b[i]
		var lo, up float64 // off-diagonal weights of L at i−1 and i+1
		if bi >= 0 {
			up += bi / dx // forward difference b(v_{i+1}−v_i)/dx
		} else {
			lo += -bi / dx // backward difference b(v_i−v_{i−1})/dx
		}
		lo += dd
		up += dd
		// Neumann boundaries fold the ghost node into the diagonal: the
		// ghost value equals the boundary value, so the off-diagonal weight
		// moves onto the diagonal, cancelling there.
		switch i {
		case 0:
			A[k] = 0
			B[k] = 1 + dt*up
			C[k] = -dt * up
		case n - 1:
			A[k] = -dt * lo
			B[k] = 1 + dt*lo
			C[k] = 0
		default:
			A[k] = -dt * lo
			B[k] = 1 + dt*(lo+up)
			C[k] = -dt * up
		}
	}
}

// assembleForwardConservative assembles the implicit forward FPK operator in
// conservative (divergence) form with zero-flux boundaries:
//
//	(I + dt·div F) λ_new = λ_old,
//	F_{i+1/2} = b⁺_{i+1/2} λ_i + b⁻_{i+1/2} λ_{i+1} − D (λ_{i+1}−λ_i)/dx.
//
// Interface drifts are arithmetic means of the nodal drifts b; row i lands at
// i·stride. The matrix has unit column sums, so Σλ is conserved to
// round-off, and it is an M-matrix, so positivity is preserved.
func assembleForwardConservative(A, B, C []float64, stride int, b []float64, dt, dx, diff float64) {
	n := len(b)
	r := dt / dx
	dd := diff / dx // D/dx (flux units)
	for i := 0; i < n; i++ {
		var bUp, bLo float64 // interface drifts at i+1/2 and i−1/2
		if i < n-1 {
			bUp = 0.5 * (b[i] + b[i+1])
		}
		if i > 0 {
			bLo = 0.5 * (b[i-1] + b[i])
		}
		bUpP, bUpM := posPart(bUp), negPart(bUp)
		bLoP, bLoM := posPart(bLo), negPart(bLo)

		diag := 1.0
		var lo, up float64
		if i < n-1 { // flux through the upper face exists
			diag += r * (bUpP + dd)
			up = r * (bUpM - dd)
		}
		if i > 0 { // flux through the lower face exists
			diag += r * (-bLoM + dd)
			lo = r * (-bLoP - dd)
		}
		k := i * stride
		A[k] = lo
		B[k] = diag
		C[k] = up
	}
}

// assembleForwardAdvective assembles the implicit paper-literal
// non-conservative FPK operator of Eq. (15):
//
//	(I + dt·(b·∂ − D·∂²)) λ_new = λ_old
//
// with upwind advection and Neumann boundaries; row i lands at i·stride. This
// form does not conserve mass when the drift varies in space (the missing
// λ·∂b term); the FPK solver optionally renormalises and reports the raw
// drift.
func assembleForwardAdvective(A, B, C []float64, stride int, b []float64, dt, dx, diff float64) {
	n := len(b)
	dd := diff / (dx * dx)
	for i := 0; i < n; i++ {
		k := i * stride
		bi := b[i]
		var lo, up float64 // off-diagonal weights of (b∂ − D∂²), to be ≤ 0
		if bi >= 0 {
			lo += -bi / dx // backward difference keeps the scheme monotone
		} else {
			up += bi / dx
		}
		lo -= dd
		up -= dd
		switch i {
		case 0:
			A[k] = 0
			B[k] = 1 - dt*up
			C[k] = dt * up
		case n - 1:
			A[k] = dt * lo
			B[k] = 1 - dt*lo
			C[k] = 0
		default:
			A[k] = dt * lo
			B[k] = 1 - dt*(lo+up)
			C[k] = dt * up
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
// diagonals (A, B, C), row i at i·stride: stride 1 for the shared h-phase
// system, the line count for one line of the interleaved q-phase systems.
func assemble(op operator, A, B, C []float64, stride int, b []float64, dt, dx, diff float64) {
	switch op {
	case opBackwardValue:
		assembleBackwardValue(A, B, C, stride, b, dt, dx, diff)
	case opForwardConservative:
		assembleForwardConservative(A, B, C, stride, b, dt, dx, diff)
	default:
		assembleForwardAdvective(A, B, C, stride, b, dt, dx, diff)
	}
}

func checkField(name string, field []float64, want int) error {
	if len(field) != want {
		return fmt.Errorf("pde: %s has %d nodes, grid has %d", name, len(field), want)
	}
	return nil
}
