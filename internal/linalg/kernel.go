package linalg

// This file is the scalar core of the tridiagonal kernels: the Thomas
// factorisation and substitution passes.
//
// The split into factorise + substitute is the seam the batched solver builds
// on: one sweep of the operator-split PDE schemes solves many lines against
// the same coefficient set, so the factorisation (cp, beta) is computed once
// and only the substitution runs per line. The substitution divides by the
// stored pivots beta[i] — the same values the fused Thomas loop divides by —
// so a factor-then-substitute solve is bit-identical to the historical fused
// Solve at float64.

// Float is the scalar type set of the tridiagonal kernels. It admits only
// float64; the kernels keep their type parameter so that existing
// instantiations such as NewTridiagBatch[float64] still compile.
type Float interface {
	~float64
}

// TinyPivot is the zero-pivot threshold of the Thomas factorisation: far
// below any diagonally-dominant system the PDE schemes assemble, far above
// the smallest normal magnitude so the comparison itself stays exact. A
// kernel outside this package that fuses the same elimination into its own
// loop (the PDE layer's lock-step q-sweep) flags the pivots this package's
// solves flag by comparing against it.
const TinyPivot = 1e-300

func absT[T Float](x T) T {
	if x < 0 {
		return -x
	}
	return x
}

// thomasFactor runs the forward-elimination pass of the Thomas algorithm over
// the diagonals (a, b, c), storing the normalised super-diagonal in cp and
// the pivots in beta. It returns the row of the first (effectively) zero
// pivot, or -1 on success. a[0] and c[n-1] are ignored.
func thomasFactor[T Float](a, b, c, cp, beta []T) int {
	n := len(b)
	if n == 0 {
		return -1
	}
	piv := b[0]
	if absT(piv) < TinyPivot {
		return 0
	}
	beta[0] = piv
	cp[0] = c[0] / piv
	for i := 1; i < n; i++ {
		piv = b[i] - a[i]*cp[i-1]
		if absT(piv) < TinyPivot {
			return i
		}
		beta[i] = piv
		cp[i] = c[i] / piv
	}
	return -1
}

// thomasSolve runs the substitution passes against a stored factorisation
// (cp, beta): forward substitution into dp, back substitution into dst. dst
// may alias rhs; dp is scratch of length n and may alias neither.
func thomasSolve[T Float](a, cp, beta, dp, dst, rhs []T) {
	n := len(beta)
	if n == 0 {
		return
	}
	dp[0] = rhs[0] / beta[0]
	for i := 1; i < n; i++ {
		dp[i] = (rhs[i] - a[i]*dp[i-1]) / beta[i]
	}
	dst[n-1] = dp[n-1]
	for i := n - 2; i >= 0; i-- {
		dst[i] = dp[i] - cp[i]*dst[i+1]
	}
}

// thomasSolveInterleaved substitutes m right-hand sides through one stored
// factorisation in a single pass, in place on x. The m systems are
// interleaved: x[i*m+j] is component i of system j, the natural layout of a
// flattened 2-D field swept along its first (strided) dimension — every row
// visit is a contiguous run of length m, so the inner loops are unit-stride
// regardless of the logical line stride and no gather/scatter is needed.
//
// Each system undergoes exactly the per-element operations of thomasSolve
// (forward: (rhs − a·prev)/beta, backward: dp − cp·next), so the result is
// bit-identical to m scalar solves.
func thomasSolveInterleaved[T Float](a, cp, beta []T, x []T, m int) {
	n := len(beta)
	if n == 0 || m == 0 {
		return
	}
	// Forward substitution, in place: row 0 scales by the first pivot, every
	// later row folds in the row above.
	row0 := x[:m]
	piv := beta[0]
	for j := range row0 {
		row0[j] /= piv
	}
	for i := 1; i < n; i++ {
		ai, bi := a[i], beta[i]
		prev := x[(i-1)*m : i*m]
		row := x[i*m : (i+1)*m]
		for j := range row {
			row[j] = (row[j] - ai*prev[j]) / bi
		}
	}
	// Back substitution: the last row is final; every earlier row folds in
	// the row below.
	for i := n - 2; i >= 0; i-- {
		ci := cp[i]
		next := x[(i+1)*m : (i+2)*m]
		row := x[i*m : (i+1)*m]
		for j := range row {
			row[j] -= ci * next[j]
		}
	}
}
