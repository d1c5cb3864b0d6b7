package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTridiagSolveKnown(t *testing.T) {
	// System: [2 1; 1 2 1; 1 2] x = [4; 8; 8] → x = [1; 2; 3].
	tri := NewTridiag(3)
	tri.B.Fill(2)
	tri.A[1], tri.A[2] = 1, 1
	tri.C[0], tri.C[1] = 1, 1
	x := NewVector(3)
	if err := tri.Solve(x, Vector{4, 8, 8}); err != nil {
		t.Fatalf("Solve: %v", err)
	}
	want := Vector{1, 2, 3}
	for i := range x {
		if math.Abs(x[i]-want[i]) > 1e-12 {
			t.Errorf("x[%d] = %g, want %g", i, x[i], want[i])
		}
	}
}

func TestTridiagIdentity(t *testing.T) {
	tri := NewTridiag(5)
	tri.SetIdentity()
	rhs := Vector{1, -2, 3, -4, 5}
	x := NewVector(5)
	if err := tri.Solve(x, rhs); err != nil {
		t.Fatalf("Solve: %v", err)
	}
	for i := range x {
		if x[i] != rhs[i] {
			t.Errorf("identity solve changed x[%d]: %g != %g", i, x[i], rhs[i])
		}
	}
}

func TestTridiagSingular(t *testing.T) {
	tri := NewTridiag(3) // all-zero system
	x := NewVector(3)
	if err := tri.Solve(x, Vector{1, 2, 3}); err == nil {
		t.Error("solving a zero matrix should return ErrSingular")
	}
}

func TestTridiagDimensionMismatch(t *testing.T) {
	tri := NewTridiag(3)
	tri.SetIdentity()
	if err := tri.Solve(NewVector(3), NewVector(2)); err == nil {
		t.Error("mismatched rhs should error")
	}
	if err := tri.MulVec(NewVector(2), NewVector(3)); err == nil {
		t.Error("mismatched dst should error")
	}
}

func TestTridiagSolveInPlace(t *testing.T) {
	tri := NewTridiag(4)
	tri.B.Fill(3)
	for i := 1; i < 4; i++ {
		tri.A[i] = -1
	}
	for i := 0; i < 3; i++ {
		tri.C[i] = -1
	}
	rhs := Vector{1, 2, 3, 4}
	ref := NewVector(4)
	if err := tri.Solve(ref, rhs.Clone()); err != nil {
		t.Fatalf("Solve: %v", err)
	}
	// In-place: dst aliases rhs.
	inplace := rhs.Clone()
	if err := tri.Solve(inplace, inplace); err != nil {
		t.Fatalf("in-place Solve: %v", err)
	}
	for i := range ref {
		if math.Abs(ref[i]-inplace[i]) > 1e-12 {
			t.Errorf("in-place result differs at %d: %g vs %g", i, inplace[i], ref[i])
		}
	}
}

// randomDominantTridiag builds a random diagonally dominant system.
func randomDominantTridiag(rng *rand.Rand, n int) *Tridiag {
	tri := NewTridiag(n)
	for i := 0; i < n; i++ {
		if i > 0 {
			tri.A[i] = rng.NormFloat64()
		}
		if i < n-1 {
			tri.C[i] = rng.NormFloat64()
		}
		tri.B[i] = math.Abs(tri.A[i]) + math.Abs(tri.C[i]) + 1 + rng.Float64()
	}
	return tri
}

// distInf returns the sup-norm distance between two vectors of one length.
func distInf(v, w Vector) float64 {
	var m float64
	for i := range v {
		m = math.Max(m, math.Abs(v[i]-w[i]))
	}
	return m
}

// Property: Solve inverts MulVec on random diagonally dominant systems.
func TestTridiagSolveInvertsMul(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(40)
		tri := randomDominantTridiag(rng, n)
		if !tri.IsDiagonallyDominant() {
			t.Fatal("construction should be diagonally dominant")
		}
		x := NewVector(n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		b := NewVector(n)
		if err := tri.MulVec(b, x); err != nil {
			t.Fatalf("MulVec: %v", err)
		}
		got := NewVector(n)
		if err := tri.Solve(got, b); err != nil {
			t.Fatalf("Solve: %v", err)
		}
		d := distInf(got, x)
		if d > 1e-8 {
			t.Fatalf("trial %d: solve error %g", trial, d)
		}
	}
}

// Property: Thomas solution matches dense LU on the expanded matrix.
func TestTridiagMatchesDenseLU(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(12)
		tri := randomDominantTridiag(rng, n)
		b := NewVector(n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		xTri := NewVector(n)
		if err := tri.Solve(xTri, b); err != nil {
			t.Fatalf("Thomas: %v", err)
		}
		xDense, err := SolveDense(tri.Dense(), b)
		if err != nil {
			t.Fatalf("dense: %v", err)
		}
		d := distInf(xTri, xDense)
		if d > 1e-8 {
			t.Fatalf("trial %d: Thomas vs LU differ by %g", trial, d)
		}
	}
}

// Property (testing/quick): for diagonal systems, Solve divides elementwise.
func TestTridiagDiagonalQuick(t *testing.T) {
	f := func(diag [6]float64, rhs [6]float64) bool {
		tri := NewTridiag(6)
		for i := range diag {
			d := diag[i]
			if math.Abs(d) < 1e-6 || math.IsNaN(d) || math.IsInf(d, 0) {
				d = 1
			}
			tri.B[i] = d
		}
		b := Vector(rhs[:]).Clone()
		for i := range b {
			if math.IsNaN(b[i]) || math.IsInf(b[i], 0) {
				b[i] = 0
			}
		}
		x := NewVector(6)
		if err := tri.Solve(x, b); err != nil {
			return false
		}
		for i := range x {
			if math.Abs(x[i]-b[i]/tri.B[i]) > 1e-9*(1+math.Abs(x[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIsDiagonallyDominantDetectsViolation(t *testing.T) {
	tri := NewTridiag(3)
	tri.B.Fill(1)
	tri.C[0] = 5 // row 0: |1| < |5|
	if tri.IsDiagonallyDominant() {
		t.Error("violation not detected")
	}
}
