package linalg

import "fmt"

// TridiagLines is m independent n×n tridiagonal systems, each with its own
// coefficients, solved in lock-step. The systems are stored interleaved: row
// r of system l sits at index r*m+l of A, B, C and the right-hand side, so
// one row of every system is a contiguous run of length m.
//
// It is the kernel of the implicit q-phase of the PDE sweeps: every q-line
// has its own drifts and hence its own operator, so the lines cannot share
// one factorisation the way the h-lines of a TridiagBatch do. Solving them
// one after another leaves the CPU waiting on a chain of dependent divisions
// per line; the lock-step pass finishes row r of every system before it
// starts row r+1, so the m division chains overlap instead.
//
// Each system undergoes exactly the per-element operations of a scalar
// Tridiag.Solve (the Thomas factorisation fused with forward substitution,
// then back substitution), so the results are bit-identical to m scalar
// solves. A[r*m+l] for r = 0 and C[r*m+l] for r = n-1 are ignored.
type TridiagLines struct {
	// A, B, C are the interleaved sub-, main- and super-diagonals, n*m each.
	A, B, C []float64

	cp   []float64 // normalised super-diagonals, interleaved like A
	n, m int
}

// NewTridiagLines allocates m interleaved n×n systems with zeroed diagonals.
func NewTridiagLines(n, m int) *TridiagLines {
	return &TridiagLines{
		A:  make([]float64, n*m),
		B:  make([]float64, n*m),
		C:  make([]float64, n*m),
		cp: make([]float64, n*m),
		n:  n,
		m:  m,
	}
}

// LineError locates a vanishing pivot of a lock-step solve: Line is the
// lowest system that has one, and Err is the error a scalar solve of that
// system returns, which wraps ErrSingular and names the system's first such
// row.
type LineError struct {
	Line int
	Err  error
}

func (e *LineError) Error() string { return fmt.Sprintf("line %d: %v", e.Line, e.Err) }

func (e *LineError) Unwrap() error { return e.Err }

// Solve factorises every system from the current diagonals and solves it in
// place on x, which holds the interleaved right-hand sides (len n*m). A
// vanishing pivot returns a *LineError; x is then unspecified. As with
// Tridiag.Solve, a NaN pivot is not flagged.
func (t *TridiagLines) Solve(x []float64) error {
	size := t.n * t.m
	if len(x) != size || len(t.A) != size || len(t.B) != size || len(t.C) != size {
		return fmt.Errorf("%w: %d systems of %d rows, diagonals %d/%d/%d, rhs %d",
			ErrDimensionMismatch, t.m, t.n, len(t.A), len(t.B), len(t.C), len(x))
	}
	if size == 0 {
		return nil
	}
	if !thomasLines(t.A, t.B, t.C, t.cp, x, t.m) {
		line, row := t.firstZeroPivot()
		return &LineError{Line: line, Err: fmt.Errorf("%w: zero pivot at row %d", ErrSingular, row)}
	}
	return nil
}

// firstZeroPivot reruns the factorisation one system at a time, in system
// order, and returns the lowest system with a vanishing pivot and that
// system's first such row: the pair a line-by-line loop of scalar solves
// stops at. The pivots depend on A, B and C only, which the lock-step pass
// leaves untouched, so they are the ones that pass computed.
func (t *TridiagLines) firstZeroPivot() (line, row int) {
	m := t.m
	for l := 0; l < m; l++ {
		piv := t.B[l]
		if absT(piv) < tinyPivot {
			return l, 0
		}
		cp := t.C[l] / piv
		for r := 1; r < t.n; r++ {
			k := r*m + l
			piv = t.B[k] - t.A[k]*cp
			if absT(piv) < tinyPivot {
				return l, r
			}
			cp = t.C[k] / piv
		}
	}
	return -1, -1
}

// thomasLines is the lock-step Thomas pass over m interleaved systems: the
// factorisation fused with forward substitution, row by row across all
// systems, then back substitution. Per system it computes
//
//	piv_r = b_r − a_r·cp_{r−1},  cp_r = c_r / piv_r,
//	x_r   = (x_r − a_r·x_{r−1}) / piv_r,
//	x_r  −= cp_r·x_{r+1}   (back substitution, r = n−2 … 0),
//
// the same expressions thomasFactor and thomasSolve evaluate, in the same
// order. It reports false on the first vanishing pivot it meets.
func thomasLines(a, b, c, cp, x []float64, m int) bool {
	n := len(x) / m
	// Row 0: the pivots are the diagonal itself.
	b0, c0, cp0, x0 := b[:m], c[:m], cp[:m], x[:m]
	for l := range x0 {
		piv := b0[l]
		if absT(piv) < tinyPivot {
			return false
		}
		cp0[l] = c0[l] / piv
		x0[l] /= piv
	}
	for r := 1; r < n; r++ {
		o := r * m
		ar, br, cr := a[o:o+m], b[o:o+m], c[o:o+m]
		cpr, xr := cp[o:o+m], x[o:o+m]
		cpp, xp := cp[o-m:o], x[o-m:o]
		cpp, xp = cpp[:len(xr)], xp[:len(xr)] // bounds-check elimination hint
		for l := range xr {
			piv := br[l] - ar[l]*cpp[l]
			if absT(piv) < tinyPivot {
				return false
			}
			cpr[l] = cr[l] / piv
			xr[l] = (xr[l] - ar[l]*xp[l]) / piv
		}
	}
	for r := n - 2; r >= 0; r-- {
		o := r * m
		cpr, xr, xn := cp[o:o+m], x[o:o+m], x[o+m:o+2*m]
		xn = xn[:len(xr)]
		for l := range xr {
			xr[l] -= cpr[l] * xn[l]
		}
	}
	return true
}
