package linalg

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// randomLines builds m random diagonally dominant n×n systems, both as
// scalar Tridiags and interleaved into one TridiagLines. The ignored corners
// (A of row 0, C of row n-1) carry random values too, so the test also pins
// that neither kernel reads them into a result.
func randomLines(rng *rand.Rand, n, m int) ([]*Tridiag, *TridiagLines) {
	tris := make([]*Tridiag, m)
	lines := NewTridiagLines(n, m)
	for l := range tris {
		tri := randomDominantTridiag(rng, n)
		tri.A[0] = rng.NormFloat64()
		tri.C[n-1] = rng.NormFloat64()
		for r := 0; r < n; r++ {
			lines.A[r*m+l] = tri.A[r]
			lines.B[r*m+l] = tri.B[r]
			lines.C[r*m+l] = tri.C[r]
		}
		tris[l] = tri
	}
	return tris, lines
}

// scalarLines solves the interleaved right-hand sides x one system at a
// time with Tridiag.Solve, the reference the lock-step kernel must match. It
// stops at the first failing system, as a line-by-line sweep does.
func scalarLines(tris []*Tridiag, x []float64) ([]float64, int, error) {
	m := len(tris)
	want := make([]float64, len(x))
	for l, tri := range tris {
		n := tri.N()
		rhs, sol := NewVector(n), NewVector(n)
		for r := 0; r < n; r++ {
			rhs[r] = x[r*m+l]
		}
		if err := tri.Solve(sol, rhs); err != nil {
			return nil, l, err
		}
		for r := 0; r < n; r++ {
			want[r*m+l] = sol[r]
		}
	}
	return want, -1, nil
}

func sameBits(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// Property: one lock-step solve of m interleaved systems is bit-identical to
// m scalar Tridiag.Solve calls, including the degenerate shapes n = 1 and
// m = 1.
func TestTridiagLinesBitEqualsScalarSolves(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	shapes := [][2]int{{1, 1}, {1, 9}, {17, 1}, {2, 2}, {61, 13}}
	for trial := 0; trial < 60; trial++ {
		shapes = append(shapes, [2]int{1 + rng.Intn(40), 1 + rng.Intn(20)})
	}
	for _, sh := range shapes {
		n, m := sh[0], sh[1]
		tris, lines := randomLines(rng, n, m)
		x := make([]float64, n*m)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		want, _, err := scalarLines(tris, x)
		if err != nil {
			t.Fatalf("%d×%d: scalar Solve: %v", n, m, err)
		}
		if err := lines.Solve(x); err != nil {
			t.Fatalf("%d×%d: lock-step Solve: %v", n, m, err)
		}
		if i := sameBits(x, want); i >= 0 {
			t.Fatalf("%d×%d: row %d of system %d: %v, scalar %v", n, m, i/m, i%m, x[i], want[i])
		}
	}
}

// Property: on systems with vanishing pivots the lock-step solve reports the
// lowest failing system and that system's first such row, with the error
// text a scalar solve of that system gives — the pair and the text a
// line-by-line loop stops at.
func TestTridiagLinesSingular(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 80; trial++ {
		n, m := 1+rng.Intn(25), 1+rng.Intn(15)
		tris, lines := randomLines(rng, n, m)
		// Zero the sub- and main diagonal at a few random (system, row)
		// slots: the pivot there is 0 − 0·cp, exactly zero.
		for z := 1 + rng.Intn(4); z > 0; z-- {
			l, r := rng.Intn(m), rng.Intn(n)
			tris[l].A[r], tris[l].B[r] = 0, 0
			lines.A[r*m+l], lines.B[r*m+l] = 0, 0
		}
		x := make([]float64, n*m)
		_, wantLine, wantErr := scalarLines(tris, x)
		err := lines.Solve(x)
		if !errors.Is(err, ErrSingular) {
			t.Fatalf("trial %d: got %v, want ErrSingular", trial, err)
		}
		var le *LineError
		if !errors.As(err, &le) {
			t.Fatalf("trial %d: %T is not a *LineError", trial, err)
		}
		if le.Line != wantLine || le.Err.Error() != wantErr.Error() {
			t.Fatalf("trial %d: line %d %q, want line %d %q", trial, le.Line, le.Err, wantLine, wantErr)
		}
		if want := fmt.Sprintf("line %d: %v", wantLine, wantErr); err.Error() != want {
			t.Fatalf("trial %d: error text %q, want %q", trial, err, want)
		}
	}
}

// A NaN pivot is not a vanishing pivot: like Tridiag.Solve, the lock-step
// solve lets it through, and the other systems are unaffected.
func TestTridiagLinesNaNPivotNotFlagged(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	const n, m = 8, 4
	tris, lines := randomLines(rng, n, m)
	tris[2].B[3] = math.NaN()
	lines.B[3*m+2] = math.NaN()
	x := make([]float64, n*m)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	want, _, err := scalarLines(tris, x)
	if err != nil {
		t.Fatalf("scalar Solve flagged a NaN pivot: %v", err)
	}
	if err := lines.Solve(x); err != nil {
		t.Fatalf("lock-step Solve flagged a NaN pivot: %v", err)
	}
	if i := sameBits(x, want); i >= 0 {
		t.Fatalf("row %d of system %d: %v, scalar %v", i/m, i%m, x[i], want[i])
	}
	if !math.IsNaN(x[3*m+2]) {
		t.Errorf("NaN pivot did not propagate: %v", x[3*m+2])
	}
}

func TestTridiagLinesDimensions(t *testing.T) {
	lines := NewTridiagLines(5, 3)
	for i := range lines.B {
		lines.B[i] = 2
	}
	if err := lines.Solve(make([]float64, 14)); !errors.Is(err, ErrDimensionMismatch) {
		t.Errorf("short rhs: got %v, want ErrDimensionMismatch", err)
	}
	lines.C = lines.C[:12]
	if err := lines.Solve(make([]float64, 15)); !errors.Is(err, ErrDimensionMismatch) {
		t.Errorf("short diagonal: got %v, want ErrDimensionMismatch", err)
	}
	for _, sh := range [][2]int{{0, 4}, {4, 0}, {0, 0}} {
		if err := NewTridiagLines(sh[0], sh[1]).Solve(nil); err != nil {
			t.Errorf("empty %d×%d solve: %v", sh[0], sh[1], err)
		}
	}
}

// Lock-step against per-line factor+substitute at the implicit q-phase's
// default shape: 13 q-lines of 61 rows, each with its own coefficients.
func BenchmarkTridiagLines(b *testing.B) {
	const n, m = 61, 13
	rng := rand.New(rand.NewSource(61))
	tris, lines := randomLines(rng, n, m)
	rhs := make([]float64, n*m)
	for i := range rhs {
		rhs[i] = rng.NormFloat64()
	}

	b.Run("per-line", func(b *testing.B) {
		// Each line contiguous, as a line-by-line sweep holds it.
		perLine := make([][]float64, m)
		for l := range perLine {
			perLine[l] = make([]float64, n)
			for r := 0; r < n; r++ {
				perLine[l][r] = rhs[r*m+l]
			}
		}
		cp, beta, dp, sol := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for l, tri := range tris {
				if row := thomasFactor(tri.A, tri.B, tri.C, cp, beta); row >= 0 {
					b.Fatalf("zero pivot at row %d", row)
				}
				thomasSolve(tri.A, cp, beta, dp, sol, perLine[l])
			}
		}
	})
	b.Run("lock-step", func(b *testing.B) {
		x := make([]float64, n*m)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			copy(x, rhs)
			if err := lines.Solve(x); err != nil {
				b.Fatal(err)
			}
		}
	})
}
