package pde

import (
	"fmt"
	"math"

	"repro/internal/linalg"
)

// The implicit q-phase solves one tridiagonal system per h-row ("q-line"),
// each with its own operator, since each row has its own drifts. The fused
// sweeps below solve all lines of a phase in lock-step, straight on the
// field: the field is stored line by line along q (node (i, j) at i·nq + j),
// so row j of every line is the run j, j+nq, j+2nq, … of the field. Each
// sweep finishes row j of every line before it starts row j+1, so the lines'
// chains of dependent divisions overlap instead of running one after another.
// A row's A, B and C entries are built from the level's drift field when the
// sweep reaches that row, through the same row helpers the h-phase assembly
// uses, and go straight into the elimination; only the normalised
// super-diagonal cp is stored, for the back substitution.
//
// Per line every sweep evaluates exactly the expressions of assembling that
// line and solving it with linalg.Tridiag.Solve (the Thomas factorisation
// fused with forward substitution, then back substitution), in the same
// order, so the results are bit-identical to solving each line on its own.
// There is one sweep per operator, not one sweep over a shared row function:
// each sweep's row arithmetic must inline into its loop.
//
// Every sweep reads the drift field b and writes the solution into dst; src
// holds the right-hand sides and may be dst itself. All three are nh·nq long
// for nh = len(b)/nq lines of nq ≥ 2 rows, and cp is nh·nq scratch. A sweep
// reports false when it meets a vanishing pivot, leaving dst unspecified; a
// NaN pivot is not flagged, as with linalg.Tridiag.Solve.

// qSweepBackwardValue solves (I − dt·L) v_new = src on every q-line, with L
// the backward operator of assembleBackwardValue.
func qSweepBackwardValue(dst, src, b, cp []float64, nq int, dt, dx, diff float64) bool {
	size := len(b)
	dst, src, cp = dst[:size], src[:size], cp[:size]
	dd := diff / (dx * dx)
	// Row 0: the pivot is the diagonal itself.
	for k := 0; k < size; k += nq {
		_, up := backwardWeights(b[k], dx, dd)
		piv := 1 + dt*up
		if math.Abs(piv) < linalg.TinyPivot {
			return false
		}
		cp[k] = -dt * up / piv
		dst[k] = src[k] / piv
	}
	for j := 1; j < nq-1; j++ {
		for k := j; k < size; k += nq {
			lo, up := backwardWeights(b[k], dx, dd)
			a := -dt * lo
			piv := 1 + dt*(lo+up) - a*cp[k-1]
			if math.Abs(piv) < linalg.TinyPivot {
				return false
			}
			cp[k] = -dt * up / piv
			dst[k] = (src[k] - a*dst[k-1]) / piv
		}
	}
	// Row nq−1 has no super-diagonal.
	for k := nq - 1; k < size; k += nq {
		lo, _ := backwardWeights(b[k], dx, dd)
		a := -dt * lo
		piv := 1 + dt*lo - a*cp[k-1]
		if math.Abs(piv) < linalg.TinyPivot {
			return false
		}
		dst[k] = (src[k] - a*dst[k-1]) / piv
	}
	backSubstitute(dst, cp, nq)
	return true
}

// qSweepForwardConservative solves (I + dt·div F) λ_new = src on every
// q-line, with F the conservative flux of assembleForwardConservative.
func qSweepForwardConservative(dst, src, b, cp []float64, nq int, dt, dx, diff float64) bool {
	size := len(b)
	dst, src, cp = dst[:size], src[:size], cp[:size]
	r := dt / dx
	dd := diff / dx
	// Row 0: only the upper face carries flux.
	for k := 0; k < size; k += nq {
		d, up := upperFace(0.5*(b[k]+b[k+1]), r, dd)
		piv := 1.0 + d
		if math.Abs(piv) < linalg.TinyPivot {
			return false
		}
		cp[k] = up / piv
		dst[k] = src[k] / piv
	}
	for j := 1; j < nq-1; j++ {
		for k := j; k < size; k += nq {
			dU, up := upperFace(0.5*(b[k]+b[k+1]), r, dd)
			dL, lo := lowerFace(0.5*(b[k-1]+b[k]), r, dd)
			piv := 1.0 + dU + dL - lo*cp[k-1]
			if math.Abs(piv) < linalg.TinyPivot {
				return false
			}
			cp[k] = up / piv
			dst[k] = (src[k] - lo*dst[k-1]) / piv
		}
	}
	// Row nq−1: only the lower face carries flux.
	for k := nq - 1; k < size; k += nq {
		d, lo := lowerFace(0.5*(b[k-1]+b[k]), r, dd)
		piv := 1.0 + d - lo*cp[k-1]
		if math.Abs(piv) < linalg.TinyPivot {
			return false
		}
		dst[k] = (src[k] - lo*dst[k-1]) / piv
	}
	backSubstitute(dst, cp, nq)
	return true
}

// qSweepForwardAdvective solves (I + dt·(b·∂ − D·∂²)) λ_new = src on every
// q-line, the operator of assembleForwardAdvective.
func qSweepForwardAdvective(dst, src, b, cp []float64, nq int, dt, dx, diff float64) bool {
	size := len(b)
	dst, src, cp = dst[:size], src[:size], cp[:size]
	dd := diff / (dx * dx)
	for k := 0; k < size; k += nq {
		_, up := advectiveWeights(b[k], dx, dd)
		piv := 1 - dt*up
		if math.Abs(piv) < linalg.TinyPivot {
			return false
		}
		cp[k] = dt * up / piv
		dst[k] = src[k] / piv
	}
	for j := 1; j < nq-1; j++ {
		for k := j; k < size; k += nq {
			lo, up := advectiveWeights(b[k], dx, dd)
			a := dt * lo
			piv := 1 - dt*(lo+up) - a*cp[k-1]
			if math.Abs(piv) < linalg.TinyPivot {
				return false
			}
			cp[k] = dt * up / piv
			dst[k] = (src[k] - a*dst[k-1]) / piv
		}
	}
	for k := nq - 1; k < size; k += nq {
		lo, _ := advectiveWeights(b[k], dx, dd)
		a := dt * lo
		piv := 1 - dt*lo - a*cp[k-1]
		if math.Abs(piv) < linalg.TinyPivot {
			return false
		}
		dst[k] = (src[k] - a*dst[k-1]) / piv
	}
	backSubstitute(dst, cp, nq)
	return true
}

// backSubstitute finishes a lock-step sweep: the last row of every line is
// final, and every earlier row folds in the row below, x_j −= cp_j·x_{j+1}.
func backSubstitute(x, cp []float64, nq int) {
	cp = cp[:len(x)]
	for j := nq - 2; j >= 0; j-- {
		for k := j; k < len(x)-1; k += nq {
			x[k] -= cp[k] * x[k+1]
		}
	}
}

// qSweep runs the implicit q-phase of equation eq ("HJB" or "FPK") at time
// t with operator op, from the drift field in the workspace: src → dst,
// which may be the same field. A vanishing pivot fails it with the text
// solving the lines one by one gives: the lowest failing q-line as the row,
// then that line's own error.
func (ws *Workspace) qSweep(eq string, t float64, op operator, dst, src []float64, dt, dx, diff float64) error {
	nq := ws.g.Q.N
	if lockStepSweep(op, dst, src, ws.bQ, ws.qcp, nq, dt, dx, diff) {
		return nil
	}
	return fmt.Errorf("pde: %s q-sweep at t=%.4g, %w", eq, t, qLineError(op, ws.bQ, nq, dt, dx, diff))
}

// lockStepSweep runs the fused lock-step q-sweep of operator op.
func lockStepSweep(op operator, dst, src, b, cp []float64, nq int, dt, dx, diff float64) bool {
	switch op {
	case opBackwardValue:
		return qSweepBackwardValue(dst, src, b, cp, nq, dt, dx, diff)
	case opForwardConservative:
		return qSweepForwardConservative(dst, src, b, cp, nq, dt, dx, diff)
	default:
		return qSweepForwardAdvective(dst, src, b, cp, nq, dt, dx, diff)
	}
}

// qLineError assembles the q-lines of a failed sweep one at a time and
// factorises each as a scalar tridiagonal system, in line order. It returns
// the first failure, naming the line as the row (its h-index) followed by
// that line's own factorisation error: the text solving the lines one by one
// gives. The pivots depend on the drifts only, and the sweep computed the
// same ones, so some line fails.
func qLineError(op operator, b []float64, nq int, dt, dx, diff float64) error {
	tri := linalg.NewTridiag(nq)
	for i := 0; i*nq < len(b); i++ {
		assemble(op, tri.A, tri.B, tri.C, b[i*nq:(i+1)*nq], dt, dx, diff)
		if err := tri.Factorize(); err != nil {
			return fmt.Errorf("row %d: %w", i, err)
		}
	}
	return fmt.Errorf("%w: a pivot vanished in the lock-step sweep only", linalg.ErrSingular)
}
