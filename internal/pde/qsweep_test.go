package pde

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/linalg"
)

var sweepOps = []struct {
	name string
	op   operator
}{
	{"backward-value", opBackwardValue},
	{"forward-conservative", opForwardConservative},
	{"forward-advective", opForwardAdvective},
}

// perLineSolve is the reference the lock-step sweep must match: every q-line
// of the drift field b assembled on its own with assemble and solved with
// linalg.Tridiag.Solve, in line order. It returns the solutions, or the
// first failing line and its error, where a line-by-line loop stops.
func perLineSolve(op operator, src, b []float64, nq int, dt, dx, diff float64) ([]float64, int, error) {
	want := make([]float64, len(src))
	tri := linalg.NewTridiag(nq)
	for i := 0; i*nq < len(b); i++ {
		line := b[i*nq : (i+1)*nq]
		assemble(op, tri.A, tri.B, tri.C, line, dt, dx, diff)
		if err := tri.Solve(want[i*nq:(i+1)*nq], src[i*nq:(i+1)*nq]); err != nil {
			return nil, i, err
		}
	}
	return want, -1, nil
}

func firstBitDiff(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// randomDrifts draws a drift field of both signs, with exact zeros (the
// upwind switch's boundary case) sprinkled in.
func randomDrifts(rng *rand.Rand, size int, scale float64) []float64 {
	b := make([]float64, size)
	for k := range b {
		if rng.Intn(10) > 0 {
			b[k] = scale * rng.NormFloat64()
		}
	}
	return b
}

// checkSweep runs the lock-step sweep of op both with src ≠ dst and in place
// and compares each with the per-line reference, bit for bit.
func checkSweep(t *testing.T, label string, op operator, src, b []float64, nq int, dt, dx, diff float64) {
	t.Helper()
	want, line, err := perLineSolve(op, src, b, nq, dt, dx, diff)
	if err != nil {
		t.Fatalf("%s: per-line line %d: %v", label, line, err)
	}
	cp := make([]float64, len(b))
	dst := make([]float64, len(src))
	orig := slices.Clone(src)
	if !lockStepSweep(op, dst, src, b, cp, nq, dt, dx, diff) {
		t.Fatalf("%s: src→dst sweep flagged a zero pivot the per-line solves did not", label)
	}
	if i := firstBitDiff(dst, want); i >= 0 {
		t.Fatalf("%s: src→dst line %d row %d: %v, per-line %v", label, i/nq, i%nq, dst[i], want[i])
	}
	if i := firstBitDiff(src, orig); i >= 0 {
		t.Fatalf("%s: src→dst sweep wrote its source at %d", label, i)
	}
	x := slices.Clone(src)
	if !lockStepSweep(op, x, x, b, cp, nq, dt, dx, diff) {
		t.Fatalf("%s: in-place sweep flagged a zero pivot the per-line solves did not", label)
	}
	if i := firstBitDiff(x, want); i >= 0 {
		t.Fatalf("%s: in place line %d row %d: %v, per-line %v", label, i/nq, i%nq, x[i], want[i])
	}
}

// Property: for every operator, one lock-step sweep over nh q-lines is bit
// for bit the per-line assembly plus linalg.Tridiag.Solve of each line, with
// src ≠ dst and in place, for random drifts of both signs, diffusions
// including zero, and shapes down to one line of two rows.
func TestQSweepBitEqualsPerLineSolves(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	shapes := [][2]int{{1, 2}, {1, 3}, {2, 3}, {3, 2}, {13, 61}, {9, 41}}
	for trial := 0; trial < 40; trial++ {
		shapes = append(shapes, [2]int{1 + rng.Intn(16), 2 + rng.Intn(60)})
	}
	for _, o := range sweepOps {
		for _, sh := range shapes {
			nh, nq := sh[0], sh[1]
			dx := 0.1 + 10*rng.Float64()
			dt := math.Pow(10, -3+3*rng.Float64())
			diff := 0.0
			if rng.Intn(4) > 0 {
				diff = math.Pow(10, -2+3*rng.Float64())
			}
			b := randomDrifts(rng, nh*nq, math.Pow(10, -1+3*rng.Float64()))
			src := make([]float64, nh*nq)
			for k := range src {
				src[k] = rng.NormFloat64()
			}
			label := fmt.Sprintf("%s %d×%d dt=%g dx=%g diff=%g", o.name, nh, nq, dt, dx, diff)
			checkSweep(t, label, o.op, src, b, nq, dt, dx, diff)
		}
	}
}

// A NaN pivot is not a vanishing pivot: like linalg.Tridiag.Solve, the sweep
// lets it through, and the other lines stay bit-equal to their own solves. A
// NaN drift makes the pivot NaN in the nodal-drift operators; the
// conservative one takes the upwind parts of the face drifts, both 0 for a
// NaN, so there it must still match the per-line solves bit for bit.
func TestQSweepNaNPivotNotFlagged(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	const nh, nq = 4, 8
	for _, o := range sweepOps {
		b := randomDrifts(rng, nh*nq, 5)
		b[2*nq+3] = math.NaN()
		src := make([]float64, nh*nq)
		for k := range src {
			src[k] = rng.NormFloat64()
		}
		checkSweep(t, o.name, o.op, src, b, nq, 0.01, 0.5, 0.2)
		dst := make([]float64, nh*nq)
		lockStepSweep(o.op, dst, src, b, make([]float64, nh*nq), nq, 0.01, 0.5, 0.2)
		if o.op != opForwardConservative && !math.IsNaN(dst[2*nq+3]) {
			t.Errorf("%s: NaN pivot did not propagate: %v", o.name, dst[2*nq+3])
		}
	}
}

// Property: on drifts that make pivots vanish, the sweep fails exactly when
// a line-by-line loop fails, and names the line and row that loop stops at,
// with its text. A negative step with no diffusion turns the M-matrices
// singular wherever a drift hits the value that zeroes a diagonal; dq and
// the steps are powers of two, so that value is exact.
func TestQSweepSingularMatchesPerLineSolves(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	const dq, dt = 0.5, -0.25
	r := dt / dq
	singular := map[operator][]float64{
		opBackwardValue:       {-dq / dt},       // 1 + dt·b/dq = 0
		opForwardAdvective:    {dq / dt},        // 1 − dt·b/dq = 0
		opForwardConservative: {-1 / r, -2 / r}, // 1 + r·b⁺ (+ r·b⁺) = 0 on a face
	}
	failures := 0
	for _, o := range sweepOps {
		for trial := 0; trial < 60; trial++ {
			nh, nq := 1+rng.Intn(12), 2+rng.Intn(24)
			b := make([]float64, nh*nq)
			for z := 1 + rng.Intn(4); z > 0; z-- {
				vals := singular[o.op]
				b[rng.Intn(len(b))] = vals[rng.Intn(len(vals))]
			}
			src := make([]float64, nh*nq)
			for k := range src {
				src[k] = rng.NormFloat64()
			}
			_, line, wantErr := perLineSolve(o.op, src, b, nq, dt, dq, 0)
			got := lockStepSweep(o.op, make([]float64, len(src)), src, b, make([]float64, len(b)), nq, dt, dq, 0)
			if got != (wantErr == nil) {
				t.Fatalf("%s trial %d: sweep ok=%v, per-line error %v", o.name, trial, got, wantErr)
			}
			if wantErr == nil {
				checkSweep(t, o.name, o.op, src, b, nq, dt, dq, 0)
				continue
			}
			failures++
			err := qLineError(o.op, b, nq, dt, dq, 0)
			if want := fmt.Sprintf("row %d: %v", line, wantErr); err.Error() != want {
				t.Fatalf("%s trial %d: %q, want %q", o.name, trial, err, want)
			}
		}
	}
	if failures < 60 {
		t.Fatalf("only %d of 180 trials hit a zero pivot", failures)
	}
}

// BenchmarkQSweep times one lock-step q-sweep per operator at the default
// q-phase shape, 13 lines of 61 rows: the HJB sweep solves a source into the
// value field, the FPK sweeps solve the density in place.
func BenchmarkQSweep(b *testing.B) {
	const nh, nq = 13, 61
	rng := rand.New(rand.NewSource(61))
	drift := randomDrifts(rng, nh*nq, 40)
	src := make([]float64, nh*nq)
	for k := range src {
		src[k] = rng.Float64()
	}
	const dt, dx, diff = 1.0 / 120, 100.0 / 60, 0.5
	for _, o := range sweepOps {
		b.Run(o.name, func(b *testing.B) {
			dst, cp := slices.Clone(src), make([]float64, nh*nq)
			in := src
			if o.op != opBackwardValue {
				in = dst
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if !lockStepSweep(o.op, dst, in, drift, cp, nq, dt, dx, diff) {
					b.Fatal("zero pivot")
				}
			}
		})
	}
}
